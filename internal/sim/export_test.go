package sim

import "fmt"

// CheckActiveSet makes every later Run iteration of e verify the
// active-set invariant by brute force: no core outside the set may hold
// an in-flight task or one that could begin a frame. The first
// violation is passed to fail (typically testing.T.Fatal).
func CheckActiveSet(e *Engine, fail func(args ...any)) {
	e.afterStep = func() {
		if err := e.activeSetViolation(); err != nil {
			fail(err)
		}
	}
}

func (e *Engine) activeSetViolation() error {
	for ti, t := range e.graph.Tasks() {
		c := e.sch.CoreOf(ti)
		if c < 0 || e.active.has(c) {
			continue
		}
		if fire := e.graph.CanFire(ti); t.InFlight || fire {
			return fmt.Errorf("tick %d: core %d is outside the active set but task %q is in flight=%v, fireable=%v",
				e.ticks, c, t.Name, t.InFlight, fire)
		}
	}
	return nil
}

func (s coreSet) has(c int) bool { return s[c>>6]&(1<<(uint(c)&63)) != 0 }
