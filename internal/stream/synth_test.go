package stream_test

import (
	"fmt"
	"math"
	"testing"

	"thermbal/internal/scenario"
)

func TestPipelineShape(t *testing.T) {
	g := builtinGraph(t, "pipeline-d8")
	if g.NumTasks() != 8 {
		t.Fatalf("depth 8 pipeline has %d tasks", g.NumTasks())
	}
	var total float64
	for _, tk := range g.Tasks() {
		total += tk.FSE
	}
	if math.Abs(total-1.4) > 1e-9 {
		t.Errorf("total FSE %g, want 1.4", total)
	}
	// Each stage has exactly one input and one output queue.
	for i := 0; i < g.NumTasks(); i++ {
		if len(g.Inputs(i)) != 1 || len(g.Outputs(i)) != 1 {
			t.Errorf("stage %d wiring %d-in %d-out, want 1-in 1-out", i, len(g.Inputs(i)), len(g.Outputs(i)))
		}
	}
}

func TestFanOutShape(t *testing.T) {
	for _, w := range []int{4, 8} {
		g := builtinGraph(t, fmt.Sprintf("fanout-w%d", w))
		if g.NumTasks() != w+2 {
			t.Fatalf("width %d fan-out has %d tasks, want %d", w, g.NumTasks(), w+2)
		}
		split, ok := g.TaskIndex("SPLIT")
		if !ok {
			t.Fatal("no SPLIT task")
		}
		if len(g.Outputs(split)) != w {
			t.Errorf("SPLIT broadcasts to %d queues, want %d", len(g.Outputs(split)), w)
		}
		join, ok := g.TaskIndex("JOIN")
		if !ok {
			t.Fatal("no JOIN task")
		}
		if len(g.Inputs(join)) != w {
			t.Errorf("JOIN consumes %d queues, want %d", len(g.Inputs(join)), w)
		}
		// Split and join take 10 % of the 1.4 budget each.
		var total float64
		for _, tk := range g.Tasks() {
			total += tk.FSE
		}
		if math.Abs(total-1.4) > 1e-9 || math.Abs(g.Task(split).FSE-0.14) > 1e-12 {
			t.Errorf("width %d: total FSE %g, split %g; want 1.4 and 0.14", w, total, g.Task(split).FSE)
		}
	}
}

// The seeded families are pure functions of their seed: compiling one
// twice gives identical loads, a non-zero seed skews the load shares
// away from the equal split, and a zero seed keeps the symmetric one.
func TestSynthDeterministicFromSeed(t *testing.T) {
	a, b := builtinGraph(t, "pipeline-d8"), builtinGraph(t, "pipeline-d8")
	for i := range a.Tasks() {
		if a.Task(i).Name != b.Task(i).Name || a.Task(i).FSE != b.Task(i).FSE {
			t.Fatalf("pipeline-d8 not deterministic at task %d: %s/%g vs %s/%g",
				i, a.Task(i).Name, a.Task(i).FSE, b.Task(i).Name, b.Task(i).FSE)
		}
	}
	skewed := false
	for _, tk := range a.Tasks() {
		if tk.FSE != a.Task(0).FSE {
			skewed = true
		}
	}
	if !skewed {
		t.Fatal("seeded pipeline has an equal load split")
	}
	sym := builtinGraph(t, "fanout-w4")
	w1, _ := sym.TaskIndex("W1")
	for _, name := range []string{"W2", "W3", "W4"} {
		if wi, _ := sym.TaskIndex(name); sym.Task(wi).FSE != sym.Task(w1).FSE {
			t.Errorf("unseeded fan-out worker %s load %g != W1 %g", name, sym.Task(wi).FSE, sym.Task(w1).FSE)
		}
	}
	sc, err := scenario.Lookup("pipeline-d8")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Spec.Graph.Placement != scenario.PlacementBalanced {
		t.Errorf("pipeline placement %q, want balanced", sc.Spec.Graph.Placement)
	}
}
