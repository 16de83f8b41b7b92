package scenario

import (
	"fmt"
	"math/rand"
)

// This file holds the seeded graph families: deep pipelines and
// fan-out/fan-in graphs of fixed topology behind the builtins, and the
// randomized split/join workloads behind the many-core builtins,
// Generate and the scalability study. Every family is a pure function
// of its parameters, so one name or seed always denotes one exact spec.

// loadFloor is the minimum share of a seeded load partition per task.
const loadFloor = 0.02

// seededShares partitions budget across n tasks in seeded random
// proportions: each task gets the 2 % floor plus its weight's part of
// the rest, clamped to one core at fmax.
func seededShares(rng *rand.Rand, n int, budget float64) ([]float64, error) {
	weights := make([]float64, n)
	var wsum float64
	for i := range weights {
		weights[i] = 0.05 + rng.Float64()
		wsum += weights[i]
	}
	avail := budget - loadFloor*float64(n)
	if avail <= 0 {
		return nil, fmt.Errorf("scenario: load budget %.2f too small for %d tasks", budget, n)
	}
	for i, w := range weights {
		weights[i] = min(loadFloor+avail*w/wsum, 1)
	}
	return weights, nil
}

// loadShares splits budget across n tasks: equal shares when seed is 0,
// seeded proportions otherwise.
func loadShares(n int, budget float64, seed int64) []float64 {
	if seed == 0 {
		out := make([]float64, n)
		for i := range out {
			out[i] = min(budget/float64(n), 1)
		}
		return out
	}
	out, err := seededShares(rand.New(rand.NewSource(seed)), n, budget)
	if err != nil {
		// The catalogue's budgets cover every task's floor.
		panic(err)
	}
	return out
}

// pipelineGraph is a linear pipeline SRC → P1 → … → Pdepth → SINK
// sharing an SDR-sized 1.4 FSE budget. Deep pipelines stress the
// policy's freeze filtering: every stage is on the critical path, so a
// single long migration stalls the whole chain.
func pipelineGraph(depth int, seed int64) GraphSpec {
	loads := loadShares(depth, 1.4, seed)
	g := GraphSpec{Placement: PlacementBalanced, Queues: queues("p:in")}
	prev := "p:in"
	for i := 1; i <= depth; i++ {
		out := fmt.Sprintf("p:%d-out", i)
		g.Queues = append(g.Queues, QueueSpec{Name: out})
		g.Tasks = append(g.Tasks, TaskSpec{
			Name: fmt.Sprintf("P%d", i), FSE: loads[i-1],
			Inputs: []string{prev}, Outputs: []string{out},
		})
		prev = out
	}
	g.Source = SourceSpec{Queue: "p:in"}
	g.Sink = SinkSpec{Queue: prev}
	return g
}

// fanOutGraph is SRC → SPLIT → {W1 … Wwidth} → JOIN → SINK: the split
// broadcasts each frame to every worker and the join needs one frame
// from each (the SDR's equalizer structure, widened). Split and join
// take 10 % of the 1.4 FSE budget each, the workers share the rest.
// Wide fan-outs stress candidate selection: many same-load tasks make
// the pairing space large and symmetric.
func fanOutGraph(width int, seed int64) GraphSpec {
	total := 1.4
	// A run-time float64 product: the exact constant 0.10 × 1.4 rounds
	// to different bits.
	edge := 0.10 * total
	shares := loadShares(width, total-2*edge, seed)

	g := GraphSpec{Placement: PlacementBalanced, Queues: queues("f:in")}
	split := TaskSpec{Name: "SPLIT", FSE: edge, Inputs: []string{"f:in"}}
	join := TaskSpec{Name: "JOIN", FSE: edge, Outputs: []string{"f:out"}}
	var workers []TaskSpec
	for i := 1; i <= width; i++ {
		in, out := fmt.Sprintf("f:split-w%d", i), fmt.Sprintf("f:w%d-join", i)
		g.Queues = append(g.Queues, QueueSpec{Name: in}, QueueSpec{Name: out})
		split.Outputs = append(split.Outputs, in)
		join.Inputs = append(join.Inputs, out)
		workers = append(workers, TaskSpec{
			Name: fmt.Sprintf("W%d", i), FSE: shares[i-1],
			Inputs: []string{in}, Outputs: []string{out},
		})
	}
	g.Queues = append(g.Queues, QueueSpec{Name: "f:out"})
	g.Tasks = append(append([]TaskSpec{split}, workers...), join)
	g.Source = SourceSpec{Queue: "f:in"}
	g.Sink = SinkSpec{Queue: "f:out"}
	return g
}

// SplitJoin returns a seeded split/join streaming graph of the given
// number of stages. Every stage is either a single filter or a parallel
// split of up to maxWidth branches: the stage's first task joins all of
// the previous stage's outputs and broadcasts to the stage's other
// branches. The first and last stages are single filters, so the graph
// has one entry and one exit. Task loads partition totalFSE in seeded
// proportions, each at least 2 % and at most one core at fmax; a budget
// too small for every task's floor is an error. Tasks are placed by the
// balanced mapping.
func SplitJoin(seed int64, stages, maxWidth int, totalFSE float64) (GraphSpec, error) {
	if stages < 1 || maxWidth < 1 {
		return GraphSpec{}, fmt.Errorf("scenario: split/join needs at least one stage of width 1, got %d stages of width %d", stages, maxWidth)
	}
	rng := rand.New(rand.NewSource(seed))
	// Draw the stage widths first so load shares can be drawn for every
	// task at once.
	widths := make([]int, stages)
	total := 0
	for i := range widths {
		widths[i] = 1
		if i > 0 && i < stages-1 {
			widths[i] += rng.Intn(maxWidth)
		}
		total += widths[i]
	}
	loads, err := seededShares(rng, total, totalFSE)
	if err != nil {
		return GraphSpec{}, err
	}

	g := GraphSpec{Placement: PlacementBalanced, Queues: queues("gq:in")}
	prevOut := []string{"gq:in"} // queues feeding the current stage
	for s, width := range widths {
		first := len(g.Tasks)
		stageOut := make([]string, 0, width)
		for br := 1; br <= width; br++ {
			ins := prevOut
			if br > 1 {
				q := fmt.Sprintf("gq:s%d-br%d", s+1, br)
				g.Queues = append(g.Queues, QueueSpec{Name: q})
				g.Tasks[first].Outputs = append(g.Tasks[first].Outputs, q)
				ins = []string{q}
			}
			out := fmt.Sprintf("gq:s%dt%d-out", s+1, br)
			g.Queues = append(g.Queues, QueueSpec{Name: out})
			g.Tasks = append(g.Tasks, TaskSpec{
				Name: fmt.Sprintf("S%dT%d", s+1, br), FSE: loads[len(g.Tasks)],
				Inputs: ins, Outputs: []string{out},
			})
			stageOut = append(stageOut, out)
		}
		prevOut = stageOut
	}
	g.Source = SourceSpec{Queue: "gq:in"}
	g.Sink = SinkSpec{Queue: prevOut[0]}
	return g, nil
}

// Generate returns the deterministic scenario spec for a seed: a
// split/join streaming workload with seeded widths and loads on a
// tiled die sized to the seed's draw. The spec — and therefore its
// content address — is a pure function of the seed, so generated
// workloads cache, persist and coalesce like built-ins.
func Generate(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	cores := 4 << rng.Intn(3) // 4, 8 or 16
	stages := cores/2 + 2 + rng.Intn(3)
	maxWidth := 2 + rng.Intn(2)
	totalFSE := (0.30 + 0.25*rng.Float64()) * float64(cores)
	g, err := SplitJoin(seed, stages, maxWidth, totalFSE)
	if err != nil {
		// The parameter ranges above always satisfy the load floor; a
		// failure is a programming error.
		panic(fmt.Sprintf("scenario: Generate(%d): %v", seed, err))
	}
	n, err := Spec{
		Name:          fmt.Sprintf("gen-%d", seed),
		Description:   fmt.Sprintf("seeded split/join workload (seed %d) on a %d-core tiled die", seed, cores),
		Graph:         g,
		Platform:      PlatformSpec{Cores: cores},
		WarmupS:       5,
		MeasureS:      10,
		DefaultPolicy: "thermal-balance",
		DefaultDelta:  2,
	}.Normalize()
	if err != nil {
		panic(fmt.Sprintf("scenario: Generate(%d): %v", seed, err))
	}
	return n
}
