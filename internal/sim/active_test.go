package sim_test

import (
	"fmt"
	"testing"

	"thermbal/internal/migrate"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/sim"
	"thermbal/internal/thermal"
)

// The active-core set must never miss a core with work: after every
// step, a brute-force scan finds no in-flight or fireable task on a
// core outside it. The fast path and the tick-stepped oracle share the
// set, so bit-for-bit agreement between them cannot catch a wrong set;
// this check can. The grid covers every builtin under each policy
// (stop-go drives StopCore/StartCore, bursty-sdr drives Modulate),
// both migration mechanisms (recreation adds the Restoring phase) and
// both integrators, plus generated workloads on both engine paths.
func TestActiveSetInvariant(t *testing.T) {
	// The one-off dense propagator build of these dies' expm integrator
	// (n³ scaling-and-squaring) takes seconds to tens of seconds under
	// race instrumentation; the plain test run covers them.
	denseExpmUnderRace := map[string]bool{"manycore-32": true, "manycore-64": true}
	const warmupS, runS = 0.25, 0.75
	var stops, migrations int
	run := func(t *testing.T, sc scenario.Scenario, pol string, cfg sim.Config) {
		inst, err := sc.Instantiate(scenario.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := policy.New(pol, policy.Args{Delta: 2})
		if err != nil {
			t.Fatal(err)
		}
		cfg.PolicyStartS, cfg.MeasureStartS = warmupS, warmupS
		cfg.Modulate = inst.Modulate
		cfg.RecordTrace = true
		e, err := sim.New(cfg, inst.Platform, inst.Graph, p)
		if err != nil {
			t.Fatal(err)
		}
		sim.CheckActiveSet(e, t.Fatal)
		if err := e.Run(runS); err != nil {
			t.Fatal(err)
		}
		for _, ev := range e.Recorder().Events() {
			if ev.Kind == "stop" {
				stops++
			}
		}
		migrations += e.Migrations().Stats().Completed
	}

	for _, name := range scenario.Names() {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []string{"energy-balance", "stop-go", "thermal-balance"} {
			for _, mech := range []migrate.Mechanism{migrate.Replication, migrate.Recreation} {
				for _, scheme := range []thermal.Scheme{thermal.Euler, thermal.Expm} {
					if raceEnabled && scheme == thermal.Expm && denseExpmUnderRace[name] {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/%s/%s", name, pol, mech, scheme), func(t *testing.T) {
						run(t, sc, pol, sim.Config{Mechanism: mech, Thermal: thermal.Config{Scheme: scheme}})
					})
				}
			}
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		sc, err := scenario.FromSpec(scenario.Generate(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, noFast := range []bool{false, true} {
			t.Run(fmt.Sprintf("gen-%d/nofastpath=%v", seed, noFast), func(t *testing.T) {
				run(t, sc, "thermal-balance", sim.Config{NoFastPath: noFast})
			})
		}
	}
	t.Logf("grid exercised %d core stops and %d migrations", stops, migrations)
	if stops == 0 || migrations == 0 {
		t.Errorf("grid exercised %d core stops and %d migrations; both must be > 0", stops, migrations)
	}
}
