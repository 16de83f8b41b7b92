package stream_test

import (
	"math"
	"testing"

	"thermbal/internal/scenario"
	"thermbal/internal/stream"
)

// splitJoin compiles a seeded split/join workload on the 3-core die.
func splitJoin(seed int64, stages, maxWidth int, totalFSE float64) (*stream.Graph, error) {
	g, err := scenario.SplitJoin(seed, stages, maxWidth, totalFSE)
	if err != nil {
		return nil, err
	}
	inst, err := scenario.Compile(scenario.Spec{Graph: g}, scenario.Options{})
	if err != nil {
		return nil, err
	}
	return inst.Graph, nil
}

func mustSplitJoin(t *testing.T, seed int64, stages, maxWidth int, totalFSE float64) *stream.Graph {
	t.Helper()
	g, err := splitJoin(seed, stages, maxWidth, totalFSE)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return g
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustSplitJoin(t, 42, 4, 3, 1.4)
	b := mustSplitJoin(t, 42, 4, 3, 1.4)
	if a.NumTasks() != b.NumTasks() {
		t.Fatalf("task counts differ: %d vs %d", a.NumTasks(), b.NumTasks())
	}
	for i := 0; i < a.NumTasks(); i++ {
		if a.Task(i).Name != b.Task(i).Name || a.Task(i).FSE != b.Task(i).FSE {
			t.Errorf("task %d differs across same-seed generations", i)
		}
	}
	c := mustSplitJoin(t, 43, 4, 3, 1.4)
	same := c.NumTasks() == a.NumTasks()
	if same {
		for i := 0; i < a.NumTasks(); i++ {
			if a.Task(i).FSE != c.Task(i).FSE {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateBudgetRespected(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := mustSplitJoin(t, seed, 4, 3, 1.4)
		var sum float64
		for _, tk := range g.Tasks() {
			if tk.FSE <= 0 || tk.FSE > 1 {
				t.Errorf("seed %d: task %s FSE %g out of range", seed, tk.Name, tk.FSE)
			}
			if tk.CyclesPerFrame <= 0 {
				t.Errorf("seed %d: task %s has no work", seed, tk.Name)
			}
			sum += tk.FSE
		}
		if math.Abs(sum-1.4) > 0.02 {
			t.Errorf("seed %d: total FSE %g, want 1.4", seed, sum)
		}
	}
}

// A budget below the 2 % per-task floor is an error, not a panic: the
// scalability study passes caller-chosen sizes.
func TestGenerateRejectsTinyBudget(t *testing.T) {
	if _, err := scenario.SplitJoin(1, 4, 3, 0.01); err == nil {
		t.Error("accepted infeasible budget")
	}
	if _, err := scenario.SplitJoin(1, 0, 3, 1.4); err == nil {
		t.Error("accepted zero stages")
	}
}

// Generated graphs must stream end to end on an ideal processor with no
// misses and no drops, for many seeds.
func TestGeneratedGraphsFlow(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := mustSplitJoin(t, seed, 4, 3, 1.4)
		idealRun(t, g, 2.0)
		if got := g.SinkStats().Misses; got != 0 {
			t.Errorf("seed %d: %d misses on ideal CPU", seed, got)
		}
		if got := g.SourceStats().Dropped; got != 0 {
			t.Errorf("seed %d: %d source drops on ideal CPU", seed, got)
		}
		if g.SinkStats().Consumed < 50 {
			t.Errorf("seed %d: only %d frames consumed", seed, g.SinkStats().Consumed)
		}
	}
}

// Stage structure: the first and last stages are single filters, every
// stage's first task joins all of the previous stage's outputs, and the
// spec leaves placement to the balanced mapping.
func TestGenerateStageStructure(t *testing.T) {
	gs, err := scenario.SplitJoin(7, 5, 3, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Placement != scenario.PlacementBalanced {
		t.Errorf("placement %q, want balanced", gs.Placement)
	}
	for _, ts := range gs.Tasks {
		if ts.Core != nil {
			t.Errorf("task %s pre-placed on core %d", ts.Name, *ts.Core)
		}
	}
	g := mustSplitJoin(t, 7, 5, 3, 1.4)
	// At least the 5 width-1 stage heads exist.
	if g.NumTasks() < 5 {
		t.Errorf("tasks = %d, want >= 5", g.NumTasks())
	}
	for _, name := range []string{"S1T1", "S5T1"} {
		ti, ok := g.TaskIndex(name)
		if !ok {
			t.Fatalf("stage head %s missing", name)
		}
		if len(g.Inputs(ti)) != 1 {
			t.Errorf("%s has %d inputs, want 1 (single-entry, single-exit)", name, len(g.Inputs(ti)))
		}
	}
	if _, ok := g.TaskIndex("S5T2"); ok {
		t.Error("last stage is split; the sink needs one tail queue")
	}
	// The compiled graph is fully placed on the 3-core die.
	for _, tk := range g.Tasks() {
		if tk.Core < 0 || tk.Core >= 3 {
			t.Errorf("task %s on core %d", tk.Name, tk.Core)
		}
	}
}
