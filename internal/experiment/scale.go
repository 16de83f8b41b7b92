package experiment

import (
	"context"
	"fmt"
	"strings"

	"thermbal/internal/core"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
)

// Scalability study: the paper's framework "can be scaled to any number
// of cores sub-systems" (Section 4). This experiment runs generated
// streaming workloads on platforms of growing size under the balancing
// policy, confirming the policy keeps working as the pairing space
// grows.

// ScaleRow is one platform-size outcome.
type ScaleRow struct {
	Cores          int
	Tasks          int
	PooledStdDev   float64
	BaselineStdDev float64 // energy-balance reference on the same workload
	DeadlineMisses int64
	Migrations     int
}

// Scale runs the study for the given core counts (default 2,4,8).
func Scale(coreCounts []int, seed int64) ([]ScaleRow, error) {
	return ScaleWith(context.Background(), Options{}, coreCounts, seed)
}

// ScaleWith is Scale with the (platform size × policy) runs spread
// across opt's worker pool. Every run regenerates its workload from the
// seed, so results are independent of scheduling.
func ScaleWith(ctx context.Context, opt Options, coreCounts []int, seed int64) ([]ScaleRow, error) {
	if len(coreCounts) == 0 {
		coreCounts = []int{2, 4, 8}
	}
	// Budget ~0.45 FSE per core so the greedy mapping is feasible at
	// mid-ladder frequencies, leaving thermal contrast.
	specFor := func(n int) (scenario.Spec, error) {
		g, err := scenario.SplitJoin(seed, n+2, 3, 0.45*float64(n))
		return scenario.Spec{Graph: g, Platform: scenario.PlatformSpec{Cores: n}}, err
	}
	runOne := func(n int, pol policy.Policy) (sim.Result, error) {
		sp, err := specFor(n)
		if err != nil {
			return sim.Result{}, err
		}
		inst, err := scenario.Compile(sp, scenario.Options{})
		if err != nil {
			return sim.Result{}, err
		}
		e, err := sim.New(sim.Config{
			PolicyStartS:  DefaultWarmupS,
			MeasureStartS: DefaultWarmupS,
			Thermal:       opt.Thermal,
		}, inst.Platform, inst.Graph, pol)
		if err != nil {
			return sim.Result{}, err
		}
		if err := e.Run(DefaultWarmupS + 20); err != nil {
			return sim.Result{}, err
		}
		return e.Summarize(), nil
	}
	// Two runs per platform size: even indices the energy-balance
	// baseline, odd the balancing policy. Policies are constructed
	// inside each run so no state crosses workers.
	type outcome struct{ base, bal sim.Result }
	outs := make([]outcome, len(coreCounts))
	if err := opt.ForEach(ctx, 2*len(coreCounts), func(_ context.Context, i int) error {
		n := coreCounts[i/2]
		if i%2 == 0 {
			r, err := runOne(n, policy.EnergyBalance{})
			if err != nil {
				return fmt.Errorf("experiment: scale n=%d baseline: %w", n, err)
			}
			outs[i/2].base = r
			return nil
		}
		r, err := runOne(n, core.New(core.Params{Delta: 2}))
		if err != nil {
			return fmt.Errorf("experiment: scale n=%d balanced: %w", n, err)
		}
		outs[i/2].bal = r
		return nil
	}); err != nil {
		return nil, err
	}
	rows := make([]ScaleRow, 0, len(coreCounts))
	for i, n := range coreCounts {
		sp, err := specFor(n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScaleRow{
			Cores:          n,
			Tasks:          len(sp.Graph.Tasks),
			PooledStdDev:   outs[i].bal.PooledStdDev,
			BaselineStdDev: outs[i].base.PooledStdDev,
			DeadlineMisses: outs[i].bal.DeadlineMisses,
			Migrations:     outs[i].bal.Migrations,
		})
	}
	return rows, nil
}

// FormatScale renders the study.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	b.WriteString("Scalability: generated workloads under thermal balancing (±2 °C, 20 s)\n")
	b.WriteString("  cores  tasks   std[°C]  baseline-std  misses  migrations\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %5d  %5d   %7.3f  %12.3f  %6d  %10d\n",
			r.Cores, r.Tasks, r.PooledStdDev, r.BaselineStdDev, r.DeadlineMisses, r.Migrations)
	}
	return b.String()
}
