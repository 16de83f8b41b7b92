package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// The event-horizon fast path.
//
// Between discrete events the tick loop does strictly predictable work:
// every busy core hands its full tick budget to one round-robin task,
// idle and stopped cores only accrue accounting time, and the source,
// sink, bus and migration daemons are no-ops. horizonTicks computes how
// many upcoming ticks are guaranteed event-free; macroStep then replays
// exactly the arithmetic those ticks would have performed — the same
// Execute calls in the same round-robin order with the same budgets —
// while skipping the per-tick scheduler scans, firing checks, daemon
// polls and power-model evaluations. Results are therefore bit-for-bit
// identical with the fast path on or off (engine_test asserts this),
// and every tick that contains an event is still executed by the plain
// stepTick path.
//
// Events that terminate a horizon:
//   - a source frame emission (stream.Graph.NextSourceEmissionAt)
//   - a sink deadline, or playback starting (NextSinkDeadlineAt)
//   - the earliest possible frame completion on any core at current
//     frequencies and budgets (a frame boundary is also the migration
//     checkpoint, so freezes are covered by the same bound)
//   - a task that could begin a frame (queue state changes at BeginFrame)
//   - a migration phase transition (migrate.Manager.NextPhaseTransitionAt)
//   - the earliest possible bus transfer completion (bus.Bus.SafeTicks);
//     within that bound in-flight transfers advance by exact per-tick
//     replay (bus.Bus.AdvanceTicks), so migrations in their transfer
//     phase do not force the whole span back to plain ticking
//   - the sensor/policy boundary (capped by the caller)
//
// The active-core set.
//
// Both the plain tick and the horizon scan visit only the cores of the
// active set, a bitset kept conservatively by one invariant:
//
//	a core outside the set holds no in-flight task and no task that
//	could begin a frame (Graph.CanFire)
//
// Such a core would do nothing on a plain tick and contributes nothing
// to the horizon bound or the macro-step rings, so skipping it changes
// no value the engine computes: every horizon, and therefore every
// macro-step span, is the one a scan of all cores would find (this
// matters under expm, where Task.ExecuteSpan rounds once per span).
//
// A task's firing condition can only become true when a queue it reads
// gains a frame or a queue it writes loses one, or when it unfreezes.
// So cores join when the graph's wake hook reports a push (the queue's
// consumers) or a pop (its producers), and when a migration completes
// (its destination). Cores leave only when observed idle: PickNext
// finds nothing in runCore, or the horizon scan finds an empty ring
// and nothing fireable. A stopped core (frequency 0) is never observed,
// so it keeps whatever membership it had.

// maxHorizon bounds ticksUntil results so later additions cannot
// overflow; any real horizon is far smaller (the sensor period caps it).
const maxHorizon = int64(1) << 40

// horizonTicks returns how many of the next ticks are guaranteed free
// of discrete events, at most maxSpan. Zero means the next tick must be
// executed by the plain path. As a side effect, a positive horizon
// leaves the ring scratch (ringFlat/ringOff) describing each core's
// round-robin allocation ring over the span.
func (e *Engine) horizonTicks(maxSpan int64) int64 {
	h := maxSpan
	// Bus transfers: advance by exact replay up to the earliest tick any
	// of them could complete.
	if e.plat.Bus.Active() > 0 {
		if s := e.plat.Bus.SafeTicks(e.cfg.TickS); s < h {
			h = s
		}
		if h <= 0 {
			return 0
		}
	}
	// Source emission: the first tick whose time reaches the schedule.
	if j := e.ticksUntilCached(&e.evSrc, e.graph.NextSourceEmissionAt()) - 1; j < h {
		h = j
	}
	// Sink deadline (or imminent playback start).
	if j := e.ticksUntilCached(&e.evSink, e.graph.NextSinkDeadlineAt()) - 1; j < h {
		h = j
	}
	// Migration restore completion (task-recreation only; transfers are
	// excluded by the gate above, checkpoints by the completion bound).
	if j := e.ticksUntilCached(&e.evMigr, e.migr.NextPhaseTransitionAt()) - 1; j < h {
		h = j
	}
	if h <= 0 {
		return 0
	}
	// Earliest possible frame completion per core, and any task that
	// would begin a frame (both change queue state, hence global).
	// The same pass records the allocation rings macroStep will replay,
	// so the run queues are only scanned once per fast-path group.
	// Cores outside the active set have neither, so they are skipped.
	e.ringFlat = e.ringFlat[:0]
	e.ringOff = e.ringOff[:0]
	e.ringCore = e.ringCore[:0]
	for c := e.active.next(0); c >= 0; c = e.active.next(c + 1) {
		f := e.plat.Frequency(c)
		if f <= 0 {
			continue
		}
		budget := f * e.cfg.TickS
		if budget <= 1e-6 {
			continue // the tick loop would not execute anything either
		}
		e.orderBuf = e.sch.OrderFrom(c, e.orderBuf)
		// First pass: collect the allocatable tasks (the round-robin
		// ring, in pick order).
		off := len(e.ringFlat)
		for _, ti := range e.orderBuf {
			t := e.graph.Task(ti)
			if !t.Runnable() {
				continue
			}
			if t.InFlight {
				e.ringFlat = append(e.ringFlat, ti)
			} else if e.graph.CanFire(ti) {
				return 0 // BeginFrame due on the very next tick
			}
		}
		ring := e.ringFlat[off:]
		m := int64(len(ring))
		if m == 0 {
			e.active.remove(c) // idle core: accounting only, no events
			continue
		}
		e.ringCore = append(e.ringCore, c)
		e.ringOff = append(e.ringOff, off)
		// Second pass: task at ring position p receives budget on ticks
		// p+1, p+1+m, ...; it certainly cannot complete during its first
		// floor(remaining/budget)-1 allocations (one whole allocation of
		// safety absorbs any rounding in Progress accumulation).
		for p, ti := range ring {
			safe := int64(e.graph.Task(ti).Remaining()/budget) - 1
			if safe < 0 {
				safe = 0
			}
			if hc := int64(p) + safe*m; hc < h {
				h = hc
				if h <= 0 {
					return 0
				}
			}
		}
	}
	e.ringOff = append(e.ringOff, len(e.ringFlat))
	return h
}

// evCache memoizes one ticksUntil call site. The threshold tick for a
// given event time is independent of the current tick (the predicate
// compares absolute tick times against `at`), so while the event time
// is unchanged the cached absolute tick answers every rescan with one
// subtraction — the horizon scan runs several times per sensor period
// against mostly-unchanged source/sink/migration schedules.
type evCache struct {
	at  float64
	abs int64 // first tick index whose time reaches at
}

// ticksUntilCached is ticksUntil memoized through c. The cached
// absolute tick stays valid until the event time changes; once the
// clock passes it the clamp to 1 reproduces ticksUntil's floor exactly.
func (e *Engine) ticksUntilCached(c *evCache, at float64) int64 {
	if math.IsInf(at, 1) {
		return maxHorizon
	}
	if math.IsInf(at, -1) {
		return 1
	}
	if at == c.at {
		j := c.abs - e.ticks
		if j < 1 {
			return 1
		}
		return j
	}
	j := e.ticksUntil(at)
	if j < maxHorizon {
		c.at, c.abs = at, e.ticks+j
	}
	return j
}

// ticksUntil returns the smallest j >= 1 such that the time of tick
// ticks+j reaches `at` under the engine's event predicate
// (now >= at-1e-12, the same slop the stream schedulers use). Infinite
// or never-due times return maxHorizon.
func (e *Engine) ticksUntil(at float64) int64 {
	if math.IsInf(at, 1) {
		return maxHorizon
	}
	if math.IsInf(at, -1) {
		return 1
	}
	tick := e.cfg.TickS
	j := int64((at-1e-12)/tick) - e.ticks
	if j < 1 {
		j = 1
	}
	if j > maxHorizon {
		j = maxHorizon
	}
	// Nudge to the exact boundary of the float predicate.
	for j > 1 && float64(e.ticks+j-1)*tick >= at-1e-12 {
		j--
	}
	for j < maxHorizon && float64(e.ticks+j)*tick < at-1e-12 {
		j++
	}
	return j
}

// macroStep advances span event-free ticks in one jump, replaying the
// exact budget allocations the plain loop would have made. It consumes
// the ring scratch the preceding horizonTicks call recorded.
//
// The replay batches per task rather than walking tick-by-tick: within
// the span every allocation deposits the same full budget, so each
// accumulator (a task's Progress/BusyCycles, the core's pending busy
// cycles) receives an identical sequence of identical additions no
// matter how the per-tick interleaving is grouped — the batched result
// is bit-for-bit the tick loop's. The round-robin cursor is then placed
// just past the span's final allocation, where PickNext would have
// left it.
func (e *Engine) macroStep(span int64) {
	tick := e.cfg.TickS
	e.stats.MacroSteps++
	e.stats.TicksJumped += span
	for c := range e.pendTicks {
		e.pendTicks[c] += span
	}
	for k, c := range e.ringCore {
		ring := e.ringFlat[e.ringOff[k]:e.ringOff[k+1]]
		m := int64(len(ring))
		budget := e.plat.Frequency(c) * tick
		for p, ti := range ring {
			// Ring position p is allocated on ticks p+1, p+1+m, ...
			a := int64(0)
			if pi := int64(p); span > pi {
				a = (span-1-pi)/m + 1
			}
			t := e.graph.Task(ti)
			if e.spanExact {
				// Span-exact accounting (expm scheme): one exact
				// product replaces the a rounded additions of the
				// replay loop. See Task.ExecuteSpan.
				consumed, done := t.ExecuteSpan(budget, a)
				if done {
					panic(fmt.Sprintf("sim: fast path mispredicted completion of %q", t.Name))
				}
				e.pendBusy[c] += consumed
				continue
			}
			for j := int64(0); j < a; j++ {
				consumed, done := t.Execute(budget)
				if done {
					panic(fmt.Sprintf("sim: fast path mispredicted completion of %q", t.Name))
				}
				e.pendBusy[c] += consumed
			}
		}
		e.sch.AdvancePast(c, ring[(span-1)%m])
	}
	e.plat.Bus.AdvanceTicks(tick, span)
	e.ticks += span
	e.now = float64(e.ticks) * tick
}

// coreSet is a bitset over core indices.
type coreSet []uint64

func newCoreSet(n int) coreSet {
	s := make(coreSet, (n+63)/64)
	for c := 0; c < n; c++ {
		s.add(c)
	}
	return s
}

func (s coreSet) add(c int)    { s[c>>6] |= 1 << (uint(c) & 63) }
func (s coreSet) remove(c int) { s[c>>6] &^= 1 << (uint(c) & 63) }

// next returns the smallest member >= c, or -1. It reads the words as
// it goes, so members added above c since the last call are found.
func (s coreSet) next(c int) int {
	w := c >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<(uint(c)&63) - 1)
	for word == 0 {
		w++
		if w >= len(s) {
			return -1
		}
		word = s[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}
