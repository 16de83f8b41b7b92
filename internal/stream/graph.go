package stream

import (
	"errors"
	"fmt"
	"math"

	"thermbal/internal/task"
)

// Graph is a streaming application: tasks wired by bounded queues, plus
// one paced source and one deadline-driven sink.
type Graph struct {
	queues []*Queue
	qIndex map[string]int

	tasks []*task.Task
	// inputs[i], outputs[i] are queue indices of task i.
	inputs  [][]int
	outputs [][]int
	tIndex  map[string]int

	source Source
	sink   Sink

	// pendingFrame tracks the frame identity each in-flight task
	// carries between BeginFrame and FinishFrame. Sized by Finalize.
	pendingFrame []Frame

	// consumers[q] and producers[q] list the tasks that read and write
	// queue q, in index order. Built by Finalize.
	consumers, producers [][]int
	// onWake, when non-nil, receives the tasks a queue change may have
	// made fireable (see SetWakeHook).
	onWake func(tasks []int)
}

// Source paces frames into the head queue at a fixed real-time rate
// (the digitalised PCM radio samples of the SDR benchmark). Emission
// times are derived as base + attempt*period rather than accumulated,
// so the schedule carries no floating-point drift over long runs.
type Source struct {
	queue   int
	period  float64
	base    float64 // time of emission 0, set when pacing starts
	next    int64   // emissions attempted so far (pushed or dropped)
	started bool

	// Emitted counts frames pushed; Dropped counts frames lost to a
	// full head queue (input overrun).
	Emitted int64
	Dropped int64
}

// nextEmissionAt is the scheduled time of the next emission attempt.
func (s *Source) nextEmissionAt() float64 {
	return s.base + float64(s.next)*s.period
}

// Sink drains the tail queue on a deadline schedule: one frame must be
// available every period once the prefill threshold has been reached
// (audio playback). A missing frame is a deadline miss — the paper's
// QoS degradation metric.
type Sink struct {
	queue   int
	period  float64
	prefill int
	playing bool
	base    float64 // time playback started; deadline k is base+(k+1)*period
	fired   int64   // deadlines elapsed since playback started

	// Consumed counts frames played; Misses counts deadlines with an
	// empty queue.
	Consumed int64
	Misses   int64
	// LatencySum accumulates (consume time - frame creation) for mean
	// pipeline latency.
	LatencySum float64
}

// nextDeadlineAt is the next deadline, derived from the deadline count
// so the schedule carries no floating-point drift.
func (k *Sink) nextDeadlineAt() float64 {
	return k.base + float64(k.fired+1)*k.period
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		qIndex: make(map[string]int),
		tIndex: make(map[string]int),
	}
}

// AddQueue creates and registers a queue, returning its index.
func (g *Graph) AddQueue(name string, capacity int) (int, error) {
	if _, dup := g.qIndex[name]; dup {
		return -1, fmt.Errorf("stream: duplicate queue %q", name)
	}
	q, err := NewQueue(name, capacity)
	if err != nil {
		return -1, err
	}
	g.qIndex[name] = len(g.queues)
	g.queues = append(g.queues, q)
	return len(g.queues) - 1, nil
}

// AddTask registers a task with its input and output queue indices.
// A task fires by consuming one frame from every input and, when the
// frame's work completes, producing one frame into every output.
func (g *Graph) AddTask(t *task.Task, inputs, outputs []int) (int, error) {
	if _, dup := g.tIndex[t.Name]; dup {
		return -1, fmt.Errorf("stream: duplicate task %q", t.Name)
	}
	for _, qi := range append(append([]int(nil), inputs...), outputs...) {
		if qi < 0 || qi >= len(g.queues) {
			return -1, fmt.Errorf("stream: task %q references unknown queue %d", t.Name, qi)
		}
	}
	if len(inputs) == 0 && len(outputs) == 0 {
		return -1, fmt.Errorf("stream: task %q is disconnected", t.Name)
	}
	g.tIndex[t.Name] = len(g.tasks)
	g.tasks = append(g.tasks, t)
	g.inputs = append(g.inputs, append([]int(nil), inputs...))
	g.outputs = append(g.outputs, append([]int(nil), outputs...))
	return len(g.tasks) - 1, nil
}

// SetSource attaches the paced source to queue qi with the given period.
func (g *Graph) SetSource(qi int, period float64) error {
	if qi < 0 || qi >= len(g.queues) {
		return fmt.Errorf("stream: source queue %d unknown", qi)
	}
	if period <= 0 {
		return errors.New("stream: source period must be positive")
	}
	g.source = Source{queue: qi, period: period}
	return nil
}

// SetSink attaches the deadline sink to queue qi. Playback starts once
// the queue first reaches prefill frames; after that one frame is due
// every period.
func (g *Graph) SetSink(qi int, period float64, prefill int) error {
	if qi < 0 || qi >= len(g.queues) {
		return fmt.Errorf("stream: sink queue %d unknown", qi)
	}
	if period <= 0 {
		return errors.New("stream: sink period must be positive")
	}
	if prefill < 1 {
		return errors.New("stream: sink prefill must be >= 1")
	}
	if c := g.queues[qi].Cap(); prefill > c {
		// The queue can never hold the threshold, so playback would
		// never start.
		return fmt.Errorf("stream: sink prefill %d exceeds queue %q capacity %d", prefill, g.queues[qi].Name(), c)
	}
	g.sink = Sink{queue: qi, period: period, prefill: prefill}
	return nil
}

// NumTasks returns the number of registered tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Task returns task i.
func (g *Graph) Task(i int) *task.Task { return g.tasks[i] }

// Tasks returns the underlying task slice (shared, not a copy).
func (g *Graph) Tasks() []*task.Task { return g.tasks }

// TaskIndex returns the index of the named task.
func (g *Graph) TaskIndex(name string) (int, bool) {
	i, ok := g.tIndex[name]
	return i, ok
}

// Queue returns queue i.
func (g *Graph) Queue(i int) *Queue { return g.queues[i] }

// NumQueues returns the queue count.
func (g *Graph) NumQueues() int { return len(g.queues) }

// QueueIndex returns the index of the named queue.
func (g *Graph) QueueIndex(name string) (int, bool) {
	i, ok := g.qIndex[name]
	return i, ok
}

// CanFire reports whether task i may begin a frame: every input queue
// non-empty and every output queue with room (space is reserved at fire
// time so a completed frame never blocks).
func (g *Graph) CanFire(i int) bool {
	if g.tasks[i].InFlight || !g.tasks[i].Runnable() {
		return false
	}
	for _, qi := range g.inputs[i] {
		if g.queues[qi].Empty() {
			return false
		}
	}
	for _, qi := range g.outputs[i] {
		if g.queues[qi].Full() {
			return false
		}
	}
	return true
}

// SetWakeHook registers fn to be called after every successful queue
// push or pop with the tasks whose CanFire the change may have turned
// true: a push wakes the queue's consumers (an input became non-empty),
// a pop wakes its producers (an output gained room). Other than a
// task's own frame finishing or its unfreezing, queue changes are the
// only way its firing condition can become true — the engine builds
// its active-core set on this. Nil disables the hook.
func (g *Graph) SetWakeHook(fn func(tasks []int)) { g.onWake = fn }

// wake reports tasks to the wake hook, if any.
func (g *Graph) wake(tasks []int) {
	if g.onWake != nil && len(tasks) > 0 {
		g.onWake(tasks)
	}
}

// BeginFrame consumes one frame from every input of task i and starts
// the task's frame work. The caller must have checked CanFire.
func (g *Graph) BeginFrame(i int) error {
	if !g.CanFire(i) {
		return fmt.Errorf("stream: task %q cannot fire", g.tasks[i].Name)
	}
	var oldest Frame
	first := true
	for _, qi := range g.inputs[i] {
		f, ok := g.queues[qi].Pop()
		if !ok {
			// CanFire guaranteed non-empty; this is a graph bug.
			panic(fmt.Sprintf("stream: queue %q empty during BeginFrame", g.queues[qi].Name()))
		}
		g.wake(g.producers[qi])
		if first || f.Created < oldest.Created {
			oldest = f
			first = false
		}
	}
	if err := g.tasks[i].StartFrame(); err != nil {
		return err
	}
	// Remember frame identity for propagation on completion.
	g.pendingFrame[i] = oldest
	return nil
}

// FinishFrame propagates task i's completed frame into every output
// queue. The engine calls it when Task.Execute reports completion.
func (g *Graph) FinishFrame(i int) {
	f := g.pendingFrame[i]
	for _, qi := range g.outputs[i] {
		// Space was reserved by CanFire at begin time, but another
		// producer sharing the queue may have filled it within the tick;
		// Push then counts the overrun and nothing wakes.
		if g.queues[qi].Push(f) {
			g.wake(g.consumers[qi])
		}
	}
}

// Finalize validates the graph and sizes internal buffers. It must be
// called once wiring is complete, before execution.
func (g *Graph) Finalize() error {
	if len(g.tasks) == 0 {
		return errors.New("stream: no tasks")
	}
	if g.source.period == 0 {
		return errors.New("stream: no source attached")
	}
	if g.sink.period == 0 {
		return errors.New("stream: no sink attached")
	}
	// Every queue needs at least one producer (task output or source)
	// and one consumer (task input or sink).
	prod := make([]int, len(g.queues))
	cons := make([]int, len(g.queues))
	prod[g.source.queue]++
	cons[g.sink.queue]++
	for i := range g.tasks {
		for _, qi := range g.inputs[i] {
			cons[qi]++
		}
		for _, qi := range g.outputs[i] {
			prod[qi]++
		}
	}
	for qi, q := range g.queues {
		if prod[qi] == 0 {
			return fmt.Errorf("stream: queue %q has no producer", q.Name())
		}
		if cons[qi] == 0 {
			return fmt.Errorf("stream: queue %q has no consumer", q.Name())
		}
	}
	g.pendingFrame = make([]Frame, len(g.tasks))
	g.buildAdjacency()
	return nil
}

// buildAdjacency inverts the per-task queue lists into consumers and
// producers, in task index order, all carved from one backing array.
func (g *Graph) buildAdjacency() {
	nq := len(g.queues)
	// List l < nq holds queue l's consumers, list nq+l its producers.
	count := make([]int, 2*nq)
	for i := range g.tasks {
		for _, qi := range g.inputs[i] {
			count[qi]++
		}
		for _, qi := range g.outputs[i] {
			count[nq+qi]++
		}
	}
	total := 0
	for _, n := range count {
		total += n
	}
	flat := make([]int, total)
	lists := make([][]int, 2*nq)
	off := 0
	for l, n := range count {
		lists[l] = flat[off : off : off+n]
		off += n
	}
	for i := range g.tasks {
		for _, qi := range g.inputs[i] {
			lists[qi] = append(lists[qi], i)
		}
		for _, qi := range g.outputs[i] {
			lists[nq+qi] = append(lists[nq+qi], i)
		}
	}
	g.consumers, g.producers = lists[:nq], lists[nq:]
}

// AdvanceSource emits frames due by time now into the head queue.
func (g *Graph) AdvanceSource(now float64) {
	s := &g.source
	if !s.started {
		s.started = true
		s.base = now
	}
	for now >= s.nextEmissionAt()-1e-12 {
		f := Frame{ID: s.next, Created: s.nextEmissionAt()}
		if g.queues[s.queue].Push(f) {
			s.Emitted++
			g.wake(g.consumers[s.queue])
		} else {
			s.Dropped++
		}
		s.next++
	}
}

// AdvanceSink consumes frames due by time now and records misses.
func (g *Graph) AdvanceSink(now float64) {
	k := &g.sink
	q := g.queues[k.queue]
	if !k.playing {
		if q.Len() >= k.prefill {
			k.playing = true
			k.base = now
		}
		return
	}
	for now >= k.nextDeadlineAt()-1e-12 {
		if f, ok := q.Pop(); ok {
			g.wake(g.producers[k.queue])
			k.Consumed++
			k.LatencySum += k.nextDeadlineAt() - f.Created
		} else {
			k.Misses++
		}
		k.fired++
	}
}

// NextSourceEmissionAt returns the absolute time of the next source
// emission, for the engine's event horizon. Before pacing has started
// the source emits on the very next advance, reported as -Inf.
func (g *Graph) NextSourceEmissionAt() float64 {
	if !g.source.started {
		return math.Inf(-1)
	}
	return g.source.nextEmissionAt()
}

// NextSinkDeadlineAt returns the absolute time of the next sink
// deadline. A sink still prefilling returns +Inf (its queue only
// changes at other events); a sink about to start playback returns
// -Inf (imminent).
func (g *Graph) NextSinkDeadlineAt() float64 {
	k := &g.sink
	if !k.playing {
		if g.queues[k.queue].Len() >= k.prefill {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	return k.nextDeadlineAt()
}

// SourceStats returns a copy of the source counters.
func (g *Graph) SourceStats() Source { return g.source }

// SinkStats returns a copy of the sink counters.
func (g *Graph) SinkStats() Sink { return g.sink }

// ResetStreamState clears all queues, source/sink schedules and per-task
// runtime accounting, keeping the wiring (for back-to-back experiments).
func (g *Graph) ResetStreamState() {
	for _, q := range g.queues {
		q.Reset()
	}
	g.source.base, g.source.next, g.source.started = 0, 0, false
	g.source.Emitted, g.source.Dropped = 0, 0
	g.sink.playing, g.sink.base, g.sink.fired = false, 0, 0
	g.sink.Consumed, g.sink.Misses, g.sink.LatencySum = 0, 0, 0
	for i, t := range g.tasks {
		t.InFlight = false
		t.Progress = 0
		t.FramesCompleted = 0
		t.BusyCycles = 0
		t.State = task.Ready
		g.pendingFrame[i] = Frame{}
	}
	// Emptied queues and unfrozen tasks can make any task fireable.
	for qi := range g.queues {
		g.wake(g.consumers[qi])
		g.wake(g.producers[qi])
	}
}

// SourceConfig returns the attached source's queue index and period,
// for deriving a declarative spec from a built graph.
func (g *Graph) SourceConfig() (queue int, periodS float64) {
	return g.source.queue, g.source.period
}

// SinkConfig returns the attached sink's queue index, period and
// prefill threshold.
func (g *Graph) SinkConfig() (queue int, periodS float64, prefill int) {
	return g.sink.queue, g.sink.period, g.sink.prefill
}

// Inputs returns the input queue indices of task i (shared slice).
func (g *Graph) Inputs(i int) []int { return g.inputs[i] }

// Outputs returns the output queue indices of task i (shared slice).
func (g *Graph) Outputs(i int) []int { return g.outputs[i] }
