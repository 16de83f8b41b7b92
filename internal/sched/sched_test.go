package sched

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAssignAndLookup(t *testing.T) {
	s := New(2)
	if s.NumCores() != 2 {
		t.Fatalf("NumCores = %d", s.NumCores())
	}
	if err := s.Assign(10, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(11, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(12, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(10, 5); err == nil {
		t.Error("out-of-range core accepted")
	}
	if s.CoreOf(10) != 0 || s.CoreOf(12) != 1 {
		t.Error("CoreOf wrong")
	}
	if s.CoreOf(99) != -1 {
		t.Error("unmapped task CoreOf != -1")
	}
	if got := s.TasksOn(0); len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Errorf("TasksOn(0) = %v", got)
	}
	if s.NumTasksOn(1) != 1 {
		t.Errorf("NumTasksOn(1) = %d", s.NumTasksOn(1))
	}
}

func TestReassignMoves(t *testing.T) {
	s := New(2)
	s.Assign(1, 0)
	s.Assign(1, 1)
	if s.CoreOf(1) != 1 {
		t.Error("reassign did not move task")
	}
	if s.NumTasksOn(0) != 0 {
		t.Error("task left on old core")
	}
	// Redundant reassign is a no-op.
	s.Assign(1, 1)
	if s.NumTasksOn(1) != 1 {
		t.Error("redundant assign duplicated task")
	}
}

func TestRemove(t *testing.T) {
	s := New(1)
	s.Assign(1, 0)
	s.Assign(2, 0)
	s.Remove(1)
	if s.CoreOf(1) != -1 {
		t.Error("removed task still mapped")
	}
	if got := s.TasksOn(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("TasksOn = %v", got)
	}
	s.Remove(99) // no-op must not panic
	s.Remove(-1)
}

// The task→core table is a slice indexed by task: gaps and removed
// tasks read as unmapped, and Mapping lists only mapped tasks.
func TestCoreOfTableAndMapping(t *testing.T) {
	s := New(2)
	if err := s.Assign(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(-1, 0); err == nil {
		t.Error("negative task index accepted")
	}
	for ti, want := range []int{-1, -1, 0, -1, -1, 1, -1} {
		if got := s.CoreOf(ti); got != want {
			t.Errorf("CoreOf(%d) = %d, want %d", ti, got, want)
		}
	}
	s.Remove(5)
	if m := s.Mapping(); len(m) != 1 || m[2] != 0 {
		t.Errorf("Mapping = %v, want map[2:0]", m)
	}
}

func TestPickNextRoundRobin(t *testing.T) {
	s := New(1)
	s.Assign(7, 0)
	s.Assign(8, 0)
	s.Assign(9, 0)
	all := func(int) bool { return true }
	got := []int{s.PickNext(0, all), s.PickNext(0, all), s.PickNext(0, all), s.PickNext(0, all)}
	want := []int{7, 8, 9, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RR sequence = %v, want %v", got, want)
		}
	}
}

func TestPickNextSkipsBlocked(t *testing.T) {
	s := New(1)
	s.Assign(1, 0)
	s.Assign(2, 0)
	only2 := func(ti int) bool { return ti == 2 }
	if got := s.PickNext(0, only2); got != 2 {
		t.Fatalf("PickNext = %d, want 2", got)
	}
	none := func(int) bool { return false }
	if got := s.PickNext(0, none); got != -1 {
		t.Fatalf("PickNext with none runnable = %d, want -1", got)
	}
	if got := s.PickNext(0, only2); got != 2 {
		t.Error("cursor corrupted by failed pick")
	}
}

func TestPickNextEmptyCore(t *testing.T) {
	s := New(1)
	if got := s.PickNext(0, func(int) bool { return true }); got != -1 {
		t.Errorf("PickNext on empty = %d", got)
	}
}

func TestCursorStableAcrossRemoval(t *testing.T) {
	s := New(1)
	s.Assign(1, 0)
	s.Assign(2, 0)
	s.Assign(3, 0)
	all := func(int) bool { return true }
	s.PickNext(0, all) // returns 1, cursor now at 2
	s.Remove(1)
	// Next pick must be 2 (cursor adjusted), not skip to 3.
	if got := s.PickNext(0, all); got != 2 {
		t.Errorf("after removal PickNext = %d, want 2", got)
	}
	if got := s.PickNext(0, all); got != 3 {
		t.Errorf("then = %d, want 3", got)
	}
}

func TestMappingCopy(t *testing.T) {
	s := New(2)
	s.Assign(1, 0)
	m := s.Mapping()
	m[1] = 1 // mutating the copy must not affect the scheduler
	if s.CoreOf(1) != 0 {
		t.Error("Mapping returned shared state")
	}
}

// Property: under arbitrary assign/remove sequences, every mapped task
// appears in exactly one run queue and CoreOf agrees with queue
// membership.
func TestMappingConsistencyProperty(t *testing.T) {
	type op struct {
		Task   uint8
		Core   uint8
		Remove bool
	}
	f := func(ops []op) bool {
		s := New(3)
		for _, o := range ops {
			ti := int(o.Task % 12)
			if o.Remove {
				s.Remove(ti)
			} else {
				s.Assign(ti, int(o.Core%3))
			}
		}
		seen := map[int]int{}
		for c := 0; c < 3; c++ {
			for _, ti := range s.TasksOn(c) {
				if _, dup := seen[ti]; dup {
					return false // task in two queues
				}
				seen[ti] = c
				if s.CoreOf(ti) != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: round-robin fairness — over k*n picks with all runnable,
// every task is picked exactly k times.
func TestRRFairnessProperty(t *testing.T) {
	f := func(nTasks, rounds uint8) bool {
		n := int(nTasks%6) + 1
		k := int(rounds%5) + 1
		s := New(1)
		for i := 0; i < n; i++ {
			s.Assign(i, 0)
		}
		counts := make([]int, n)
		for i := 0; i < k*n; i++ {
			ti := s.PickNext(0, func(int) bool { return true })
			if ti < 0 {
				return false
			}
			counts[ti]++
		}
		for _, c := range counts {
			if c != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOrderFromFollowsCursor(t *testing.T) {
	s := New(1)
	for _, ti := range []int{5, 7, 9} {
		if err := s.Assign(ti, 0); err != nil {
			t.Fatal(err)
		}
	}
	all := func(int) bool { return true }
	// Advance the cursor past 5: pick order becomes 7, 9, 5.
	if got := s.PickNext(0, all); got != 5 {
		t.Fatalf("first pick = %d", got)
	}
	got := s.OrderFrom(0, nil)
	want := []int{7, 9, 5}
	if len(got) != len(want) {
		t.Fatalf("OrderFrom = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OrderFrom = %v, want %v", got, want)
		}
	}
	// OrderFrom must not advance the cursor.
	if next := s.PickNext(0, all); next != 7 {
		t.Errorf("pick after OrderFrom = %d, want 7", next)
	}
}

// AdvancePast must leave the cursor exactly where a PickNext returning
// that task would have.
func TestAdvancePastMatchesPickNext(t *testing.T) {
	mk := func() *Scheduler {
		s := New(1)
		for _, ti := range []int{2, 4, 6, 8} {
			if err := s.Assign(ti, 0); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	all := func(int) bool { return true }
	for _, target := range []int{2, 4, 6, 8} {
		picked := mk()
		for picked.PickNext(0, all) != target {
		}
		jumped := mk()
		jumped.AdvancePast(0, target)
		for i := 0; i < 4; i++ {
			a, b := picked.PickNext(0, all), jumped.PickNext(0, all)
			if a != b {
				t.Fatalf("after target %d: pick %d diverged (%d vs %d)", target, i, a, b)
			}
		}
	}
}

func TestAdvancePastUnknownTaskPanics(t *testing.T) {
	s := New(1)
	if err := s.Assign(1, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AdvancePast(unmapped) did not panic")
		}
	}()
	s.AdvancePast(0, 99)
}
