package stream_test

import (
	"math"
	"testing"
)

func TestVideoStructure(t *testing.T) {
	g := builtinGraph(t, "video-decoder")
	if g.NumTasks() != 6 {
		t.Fatalf("tasks = %d", g.NumTasks())
	}
	if g.NumQueues() != 8 {
		t.Fatalf("queues = %d", g.NumQueues())
	}
	// The first-fit-by-pipeline-order placement (0-based cores).
	mapping := map[string]int{"VLD": 0, "IDCT1": 0, "MC": 0, "IQ": 1, "IDCT2": 1, "OUT": 2}
	for name, core := range mapping {
		ti, ok := g.TaskIndex(name)
		if !ok {
			t.Fatalf("task %s missing", name)
		}
		if g.Task(ti).Core != core {
			t.Errorf("%s on core %d, want %d", name, g.Task(ti).Core, core)
		}
	}
	// The first-fit mapping is intentionally unbalanced but feasible:
	// core 1 carries the pipeline front at 533 MHz, core 3 idles.
	sum := map[int]float64{}
	for _, tk := range g.Tasks() {
		sum[tk.Core] += tk.FSE
	}
	if sum[0] <= 0.5 {
		t.Errorf("core1 FSE %.2f; mapping no longer unbalanced", sum[0])
	}
	if sum[0] > 1 {
		t.Errorf("core1 FSE %.2f infeasible", sum[0])
	}
	if math.Abs(sum[0]+sum[1]+sum[2]-1.26) > 1e-9 {
		t.Errorf("total FSE = %g", sum[0]+sum[1]+sum[2])
	}
}

func TestVideoFlowsEndToEnd(t *testing.T) {
	g := builtinGraph(t, "video-decoder")
	idealRun(t, g, 3.0)
	if g.SinkStats().Misses != 0 {
		t.Errorf("%d misses on ideal CPU", g.SinkStats().Misses)
	}
	// 25 fps: ~75 frames in 3 s.
	if got := g.SinkStats().Consumed; got < 50 {
		t.Errorf("consumed %d frames", got)
	}
	mc, _ := g.TaskIndex("MC")
	if g.Task(mc).FramesCompleted == 0 {
		t.Error("MC never fired")
	}
}

func TestVideoSplitJoinSemantics(t *testing.T) {
	g := builtinGraph(t, "video-decoder")
	mc, _ := g.TaskIndex("MC")
	if got := len(g.Inputs(mc)); got != 2 {
		t.Errorf("MC inputs = %d, want 2 (join)", got)
	}
	iq, _ := g.TaskIndex("IQ")
	if got := len(g.Outputs(iq)); got != 2 {
		t.Errorf("IQ outputs = %d, want 2 (broadcast)", got)
	}
}
