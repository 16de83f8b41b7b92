package stream

import (
	"math"
	"testing"
	"testing/quick"

	"thermbal/internal/task"
)

func TestQueueBasics(t *testing.T) {
	if _, err := NewQueue("bad", 0); err == nil {
		t.Error("zero capacity accepted")
	}
	q, err := NewQueue("q", 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "q" || q.Cap() != 2 {
		t.Error("accessors wrong")
	}
	if !q.Empty() || q.Full() {
		t.Error("fresh queue state wrong")
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty succeeded")
	}
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty succeeded")
	}
	if !q.Push(Frame{ID: 1}) || !q.Push(Frame{ID: 2}) {
		t.Fatal("pushes failed")
	}
	if q.Push(Frame{ID: 3}) {
		t.Error("push to full queue succeeded")
	}
	if q.Stats().Overruns != 1 {
		t.Errorf("overruns = %d", q.Stats().Overruns)
	}
	f, ok := q.Peek()
	if !ok || f.ID != 1 {
		t.Errorf("Peek = %v", f)
	}
	f, _ = q.Pop()
	g, _ := q.Pop()
	if f.ID != 1 || g.ID != 2 {
		t.Errorf("FIFO order violated: %d then %d", f.ID, g.ID)
	}
}

func TestQueueStatsAndReset(t *testing.T) {
	q, _ := NewQueue("q", 4)
	q.Push(Frame{ID: 0})
	q.Push(Frame{ID: 1})
	q.Pop()
	s := q.Stats()
	if s.Pushes != 2 || s.Pops != 1 || s.MaxLevel != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.MeanLevel <= 0 {
		t.Errorf("mean level = %g", s.MeanLevel)
	}
	q.Reset()
	s = q.Stats()
	if s.Pushes != 0 || s.Pops != 0 || s.MaxLevel != 0 || q.Len() != 0 {
		t.Errorf("reset incomplete: %+v", s)
	}
}

// Property: a queue never exceeds capacity and never reports negative
// length under arbitrary push/pop sequences.
func TestQueueInvariantProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q, _ := NewQueue("p", 5)
		var id int64
		for _, push := range ops {
			if push {
				q.Push(Frame{ID: id})
				id++
			} else {
				q.Pop()
			}
			if q.Len() < 0 || q.Len() > q.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: FIFO — IDs pop in push order.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(n uint8) bool {
		q, _ := NewQueue("p", 300)
		for i := int64(0); i <= int64(n); i++ {
			q.Push(Frame{ID: i})
		}
		for i := int64(0); i <= int64(n); i++ {
			f, ok := q.Pop()
			if !ok || f.ID != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphWiringErrors(t *testing.T) {
	g := NewGraph()
	if _, err := g.AddQueue("a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddQueue("a", 2); err == nil {
		t.Error("duplicate queue accepted")
	}
	if _, err := g.AddQueue("bad", -1); err == nil {
		t.Error("bad capacity accepted")
	}
	tk := task.MustNew("t", 0.5)
	if _, err := g.AddTask(tk, []int{0}, []int{7}); err == nil {
		t.Error("unknown queue reference accepted")
	}
	if _, err := g.AddTask(tk, nil, nil); err == nil {
		t.Error("disconnected task accepted")
	}
	if _, err := g.AddTask(tk, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddTask(task.MustNew("t", 0.1), []int{0}, nil); err == nil {
		t.Error("duplicate task accepted")
	}
	if err := g.SetSource(9, 0.1); err == nil {
		t.Error("bad source queue accepted")
	}
	if err := g.SetSource(0, 0); err == nil {
		t.Error("bad source period accepted")
	}
	if err := g.SetSink(9, 0.1, 1); err == nil {
		t.Error("bad sink queue accepted")
	}
	if err := g.SetSink(0, 0, 1); err == nil {
		t.Error("bad sink period accepted")
	}
	if err := g.SetSink(0, 0.1, 0); err == nil {
		t.Error("bad prefill accepted")
	}
}

func TestFinalizeValidation(t *testing.T) {
	// No tasks.
	g := NewGraph()
	if err := g.Finalize(); err == nil {
		t.Error("empty graph finalized")
	}
	// Queue with no consumer.
	g = NewGraph()
	q0, _ := g.AddQueue("in", 2)
	q1, _ := g.AddQueue("dangling", 2)
	g.AddTask(task.MustNew("t", 0.5), []int{q0}, []int{q1})
	g.SetSource(q0, 0.1)
	g.SetSink(q0, 0.1, 1) // sink on q0 leaves q1 without consumer
	if err := g.Finalize(); err == nil {
		t.Error("queue without consumer finalized")
	}
	// Missing source / sink.
	g = NewGraph()
	q0, _ = g.AddQueue("in", 2)
	g.AddTask(task.MustNew("t", 0.5), []int{q0}, nil)
	if err := g.Finalize(); err == nil {
		t.Error("missing source/sink finalized")
	}
}

func TestSDRBuilds(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	if g.NumTasks() != 6 {
		t.Fatalf("SDR tasks = %d, want 6", g.NumTasks())
	}
	if g.NumQueues() != 9 {
		t.Fatalf("SDR queues = %d, want 9", g.NumQueues())
	}
	for _, name := range SDRTaskNames {
		i, ok := g.TaskIndex(name)
		if !ok {
			t.Fatalf("task %s missing", name)
		}
		tk := g.Task(i)
		if tk.Core != Table2Mapping[name] {
			t.Errorf("%s on core %d, want %d", name, tk.Core, Table2Mapping[name])
		}
		if tk.CyclesPerFrame <= 0 {
			t.Errorf("%s has no work bound", name)
		}
	}
	// Table 2 core loads: the per-core FSE sums must map to the paper's
	// frequencies (checked against 533/266/266 in the dvfs tests; here
	// verify the sums themselves).
	sum := map[int]float64{}
	for _, tk := range g.Tasks() {
		sum[tk.Core] += tk.FSE
	}
	if math.Abs(sum[0]-0.65) > 1e-9 {
		t.Errorf("core1 FSE = %g, want 0.65", sum[0])
	}
	if math.Abs(sum[1]-(FSEBPF2+FSESum)) > 1e-9 || sum[1] > 0.5 {
		t.Errorf("core2 FSE = %g, want %g (< 0.5 so 266 MHz fits)", sum[1], FSEBPF2+FSESum)
	}
	if math.Abs(sum[2]-(FSEBPF3+FSELPF)) > 1e-9 || sum[2] > 0.5 {
		t.Errorf("core3 FSE = %g", sum[2])
	}
}

// Drive the SDR graph with an ideal processor (unlimited cycles) and
// check end-to-end frame flow and zero misses.
func idealRun(t *testing.T, g *Graph, duration float64) {
	t.Helper()
	const tick = 0.001
	for now := 0.0; now < duration; now += tick {
		g.AdvanceSource(now)
		// Run every task to completion instantly (ideal CPU).
		for pass := 0; pass < 8; pass++ {
			fired := false
			for i := 0; i < g.NumTasks(); i++ {
				if g.CanFire(i) {
					if err := g.BeginFrame(i); err != nil {
						t.Fatal(err)
					}
					g.Task(i).Execute(math.Inf(1))
					g.FinishFrame(i)
					fired = true
				}
			}
			if !fired {
				break
			}
		}
		g.AdvanceSink(now)
	}
}

func TestSDREndToEndIdealProcessor(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	idealRun(t, g, 3.0)
	src := g.SourceStats()
	snk := g.SinkStats()
	if src.Emitted < 140 {
		t.Errorf("source emitted %d frames in 3 s, want ≈150", src.Emitted)
	}
	if src.Dropped != 0 {
		t.Errorf("source dropped %d frames on ideal CPU", src.Dropped)
	}
	if snk.Misses != 0 {
		t.Errorf("%d misses on ideal CPU", snk.Misses)
	}
	if snk.Consumed < 100 {
		t.Errorf("sink consumed only %d frames", snk.Consumed)
	}
	// Every intermediate queue must have seen traffic.
	for qi := 0; qi < g.NumQueues(); qi++ {
		if g.Queue(qi).Stats().Pushes == 0 {
			t.Errorf("queue %s never received a frame", g.Queue(qi).Name())
		}
	}
}

func TestSinkMissesWhenPipelineFrozen(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	idealRun(t, g, 1.0)
	pre := g.SinkStats().Misses
	if pre != 0 {
		t.Fatalf("unexpected misses in warmup: %d", pre)
	}
	// Freeze the whole pipeline (no task work) but keep the sink draining.
	start := 1.0
	for now := start; now < start+1.0; now += 0.001 {
		g.AdvanceSource(now)
		g.AdvanceSink(now)
	}
	misses := g.SinkStats().Misses
	if misses < 30 {
		t.Errorf("frozen pipeline produced only %d misses in 1 s, want ≈ 45+", misses)
	}
	// The head queue must have overrun (source kept pushing).
	headStats := g.Queue(0).Stats()
	if headStats.Overruns == 0 {
		t.Error("head queue never overran while pipeline frozen")
	}
}

func TestResetStreamState(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	idealRun(t, g, 1.0)
	g.ResetStreamState()
	if g.SourceStats().Emitted != 0 || g.SinkStats().Consumed != 0 {
		t.Error("reset kept source/sink counters")
	}
	for qi := 0; qi < g.NumQueues(); qi++ {
		if g.Queue(qi).Len() != 0 {
			t.Errorf("queue %s not cleared", g.Queue(qi).Name())
		}
	}
	for _, tk := range g.Tasks() {
		if tk.FramesCompleted != 0 || tk.InFlight {
			t.Errorf("task %s kept state", tk.Name)
		}
	}
	// Graph is reusable after reset.
	idealRun(t, g, 1.0)
	if g.SinkStats().Misses != 0 {
		t.Error("misses after reset on ideal CPU")
	}
}

func TestBeginFrameRequiresFirable(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	lpf, _ := g.TaskIndex("LPF")
	if g.CanFire(lpf) {
		t.Fatal("LPF firable with empty input")
	}
	if err := g.BeginFrame(lpf); err == nil {
		t.Error("BeginFrame on unfirable task succeeded")
	}
	// Frozen task cannot fire even with data.
	g.AdvanceSource(0)
	g.Task(lpf).State = task.Frozen
	if g.CanFire(lpf) {
		t.Error("frozen task firable")
	}
	g.Task(lpf).State = task.Ready
	if !g.CanFire(lpf) {
		t.Error("LPF not firable with input frame available")
	}
}

func TestSumRequiresAllThreeBPFs(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	sum, _ := g.TaskIndex("SUM")
	// Push frames into only two of the three BPF output queues.
	q1, _ := g.QueueIndex("q:bpf1-sum")
	q2, _ := g.QueueIndex("q:bpf2-sum")
	g.Queue(q1).Push(Frame{ID: 1})
	g.Queue(q2).Push(Frame{ID: 1})
	if g.CanFire(sum) {
		t.Error("SUM fired with only 2 of 3 inputs")
	}
	q3, _ := g.QueueIndex("q:bpf3-sum")
	g.Queue(q3).Push(Frame{ID: 1})
	if !g.CanFire(sum) {
		t.Error("SUM not firable with all inputs present")
	}
	// Fire and check all three inputs consumed.
	if err := g.BeginFrame(sum); err != nil {
		t.Fatal(err)
	}
	if g.Queue(q1).Len() != 0 || g.Queue(q2).Len() != 0 || g.Queue(q3).Len() != 0 {
		t.Error("SUM did not consume one frame from each input")
	}
}

func TestSinkLatencyAccounting(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	idealRun(t, g, 2.0)
	snk := g.SinkStats()
	if snk.Consumed == 0 {
		t.Fatal("no frames consumed")
	}
	mean := snk.LatencySum / float64(snk.Consumed)
	if mean <= 0 {
		t.Errorf("mean pipeline latency = %g, want positive", mean)
	}
	// With prefill 6 frames at 20 ms the latency is dominated by the
	// prefill delay; it must stay below the full pipeline worst case.
	if mean > 1.0 {
		t.Errorf("mean latency %g s implausibly high", mean)
	}
}

func TestInputsOutputsAccessors(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	demod, _ := g.TaskIndex("DEMOD")
	if got := len(g.Outputs(demod)); got != 3 {
		t.Errorf("DEMOD outputs = %d, want 3 (broadcast)", got)
	}
	if got := len(g.Inputs(demod)); got != 1 {
		t.Errorf("DEMOD inputs = %d, want 1", got)
	}
	sum, _ := g.TaskIndex("SUM")
	if got := len(g.Inputs(sum)); got != 3 {
		t.Errorf("SUM inputs = %d, want 3 (join)", got)
	}
}

// The source/sink schedules are derived from counts, not accumulated, so
// after millions of periods the next event time is still exactly
// base + n*period (the accumulating form had drifted by whole frames).
func TestScheduleDriftFree(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	const period = DefaultFramePeriod
	g.AdvanceSource(0) // starts the schedule, emits frame 0
	const n = 2_000_000
	// Jump far ahead: every due emission fires (the head queue overruns,
	// which only increments Dropped).
	g.AdvanceSource(float64(n) * period)
	src := g.SourceStats()
	attempts := src.Emitted + src.Dropped
	if attempts != n+1 {
		t.Fatalf("attempts = %d, want %d", attempts, n+1)
	}
	if got, want := g.NextSourceEmissionAt(), float64(n+1)*period; got != want {
		t.Errorf("NextSourceEmissionAt = %x, want exactly %x", got, want)
	}
}

func TestNextEventQueries(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	if !math.IsInf(g.NextSourceEmissionAt(), -1) {
		t.Error("unstarted source not imminent")
	}
	if !math.IsInf(g.NextSinkDeadlineAt(), 1) {
		t.Error("prefilling sink reported a deadline")
	}
	g.AdvanceSource(0)
	if got, want := g.NextSourceEmissionAt(), DefaultFramePeriod; got != want {
		t.Errorf("next emission = %v, want %v", got, want)
	}
	// Fill the sink queue to the prefill threshold: playback is imminent.
	qi, ok := g.QueueIndex("q:sum-sink")
	if !ok {
		t.Fatal("sink queue missing")
	}
	for i := 0; g.Queue(qi).Len() < DefaultQueueCap/2+1; i++ {
		g.Queue(qi).Push(Frame{ID: int64(i)})
	}
	if !math.IsInf(g.NextSinkDeadlineAt(), -1) {
		t.Error("prefilled sink not imminent")
	}
	g.AdvanceSink(1.0) // playback starts at 1.0
	if got, want := g.NextSinkDeadlineAt(), 1.0+DefaultFramePeriod; got != want {
		t.Errorf("next deadline = %v, want %v", got, want)
	}
	// Consume one deadline; the next derives from the fired count.
	g.AdvanceSink(1.0 + DefaultFramePeriod)
	if got, want := g.NextSinkDeadlineAt(), 1.0+2*DefaultFramePeriod; got != want {
		t.Errorf("deadline after one fire = %v, want %v", got, want)
	}
}

// The wake hook reports exactly the tasks a queue change can make
// fireable: a push wakes the queue's consumers, a pop its producers.
func TestWakeHookReportsQueueChanges(t *testing.T) {
	g := MustBuildSDR(SDRConfig{})
	var woke []string
	g.SetWakeHook(func(ts []int) {
		for _, ti := range ts {
			woke = append(woke, g.Task(ti).Name)
		}
	})
	expect := func(step string, want ...string) {
		t.Helper()
		if len(woke) != len(want) {
			t.Fatalf("%s woke %v, want %v", step, woke, want)
		}
		for i := range want {
			if woke[i] != want[i] {
				t.Fatalf("%s woke %v, want %v", step, woke, want)
			}
		}
		woke = nil
	}
	lpf, _ := g.TaskIndex("LPF")
	demod, _ := g.TaskIndex("DEMOD")
	finish := func(ti int) {
		if err := g.BeginFrame(ti); err != nil {
			t.Fatal(err)
		}
		if _, done := g.Task(ti).Execute(math.Inf(1)); !done {
			t.Fatal("frame did not complete")
		}
		g.FinishFrame(ti)
	}

	g.AdvanceSource(0)
	expect("source push", "LPF")
	finish(lpf) // the pop of the source queue wakes no task
	expect("LPF frame", "DEMOD")
	finish(demod)
	expect("DEMOD frame", "LPF", "BPF1", "BPF2", "BPF3")
}
