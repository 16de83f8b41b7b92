package scenario

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// validMinimalSpec is a hand-written two-task pipeline that exercises
// every defaulting path: no frame period, no fmax, no queue cap, no
// platform, no phases.
func validMinimalSpec() Spec {
	c0, c1 := 0, 1
	return Spec{
		Name: "mini",
		Graph: GraphSpec{
			Queues: []QueueSpec{{Name: "in"}, {Name: "mid"}, {Name: "out"}},
			Tasks: []TaskSpec{
				{Name: "a", FSE: 0.5, Inputs: []string{"in"}, Outputs: []string{"mid"}, Core: &c0},
				{Name: "b", FSE: 0.4, Inputs: []string{"mid"}, Outputs: []string{"out"}, Core: &c1},
			},
			Source: SourceSpec{Queue: "in"},
			Sink:   SinkSpec{Queue: "out"},
		},
	}
}

// requireProblem normalizes sp, demands failure, and checks one of the
// reported problems matches the path and message fragment.
func requireProblem(t *testing.T, sp Spec, path, msgFrag string) {
	t.Helper()
	_, err := sp.Normalize()
	if err == nil {
		t.Fatalf("Normalize accepted a spec that should fail at %s (%s)", path, msgFrag)
	}
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, not *SpecError: %v", err, err)
	}
	for _, p := range se.Problems {
		if p.Path == path && strings.Contains(p.Msg, msgFrag) {
			return
		}
	}
	t.Fatalf("no problem at %q containing %q; got %v", path, msgFrag, se.Problems)
}

func TestNormalizeDefaults(t *testing.T) {
	n, err := validMinimalSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.SpecVersion != SpecVersionV1 {
		t.Errorf("spec version %d", n.SpecVersion)
	}
	if n.Graph.FramePeriodS != 0.020 || n.Graph.FMaxHz != 533e6 || n.Graph.QueueCap != 11 {
		t.Errorf("graph defaults: period %g fmax %g cap %d",
			n.Graph.FramePeriodS, n.Graph.FMaxHz, n.Graph.QueueCap)
	}
	if n.Graph.Placement != PlacementExplicit {
		t.Errorf("placement %q", n.Graph.Placement)
	}
	if n.Graph.Source.PeriodS != 0.020 || n.Graph.Sink.PeriodS != 0.020 {
		t.Errorf("endpoint periods %g / %g", n.Graph.Source.PeriodS, n.Graph.Sink.PeriodS)
	}
	if n.Platform.Cores != 3 {
		t.Errorf("default cores %d", n.Platform.Cores)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	specs := map[string]Spec{"minimal": validMinimalSpec(), "generated": Generate(7)}
	for _, s := range All() {
		specs["builtin/"+s.Name] = *s.Spec
	}
	for name, sp := range specs {
		once, err := sp.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		twice, err := once.Normalize()
		if err != nil {
			t.Fatalf("%s: renormalize: %v", name, err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("%s: Normalize is not idempotent:\nonce:  %+v\ntwice: %+v", name, once, twice)
		}
	}
}

// TestNormalizePure: normalizing must not mutate the input spec, even
// through shared slice backing arrays (tiles get scales filled, ladders
// get sorted).
func TestNormalizePure(t *testing.T) {
	sp := validMinimalSpec()
	sp.Platform.Tiles = []TileSpec{{Count: 1}, {Count: 2, Scale: 0.5}}
	sp.Platform.LadderMHz = []float64{533, 133, 266}
	before := Spec{}
	b, _ := sp.Normalize() // warm anything lazily cached
	_ = b
	beforeTiles := append([]TileSpec(nil), sp.Platform.Tiles...)
	beforeLadder := append([]float64(nil), sp.Platform.LadderMHz...)
	before = sp
	if _, err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, before) ||
		!reflect.DeepEqual(sp.Platform.Tiles, beforeTiles) ||
		!reflect.DeepEqual(sp.Platform.LadderMHz, beforeLadder) {
		t.Fatalf("Normalize mutated its input: %+v", sp)
	}
}

func TestValidateRejections(t *testing.T) {
	mut := func(f func(*Spec)) Spec {
		sp := validMinimalSpec()
		f(&sp)
		return sp
	}
	neg := -1

	cases := []struct {
		name    string
		sp      Spec
		path    string
		msgFrag string
	}{
		{"future version", mut(func(s *Spec) { s.SpecVersion = 2 }), "spec_version", "unsupported"},
		{"negative warmup", mut(func(s *Spec) { s.WarmupS = -1 }), "warmup_s", "non-negative"},
		{"nan measure", mut(func(s *Spec) { s.MeasureS = math.NaN() }), "measure_s", "finite"},
		{"negative delta", mut(func(s *Spec) { s.DefaultDelta = -2 }), "default_delta", "non-negative"},
		{"no queues", mut(func(s *Spec) { s.Graph.Queues = nil }), "graph.queues", "at least one"},
		{"no tasks", mut(func(s *Spec) { s.Graph.Tasks = nil }), "graph.tasks", "at least one"},
		{"dup queue", mut(func(s *Spec) { s.Graph.Queues[1].Name = "in" }), "graph.queues[1].name", "duplicate"},
		{"dup task", mut(func(s *Spec) { s.Graph.Tasks[1].Name = "a" }), "graph.tasks[1].name", "duplicate"},
		{"fse zero", mut(func(s *Spec) { s.Graph.Tasks[0].FSE = 0 }), "graph.tasks[0].fse", "outside (0, 1]"},
		{"fse over one", mut(func(s *Spec) { s.Graph.Tasks[0].FSE = 1.5 }), "graph.tasks[0].fse", "outside (0, 1]"},
		{"fse nan", mut(func(s *Spec) { s.Graph.Tasks[0].FSE = math.NaN() }), "graph.tasks[0].fse", "outside"},
		{"inf frame period", mut(func(s *Spec) { s.Graph.FramePeriodS = math.Inf(1) }), "graph.frame_period_s", "finite"},
		{"negative frame period", mut(func(s *Spec) { s.Graph.FramePeriodS = -0.02 }), "graph.frame_period_s", "outside"},
		{"dangling input", mut(func(s *Spec) { s.Graph.Tasks[0].Inputs[0] = "ghost" }), "graph.tasks[0].inputs[0]", "dangling edge"},
		{"dangling output", mut(func(s *Spec) { s.Graph.Tasks[1].Outputs[0] = "ghost" }), "graph.tasks[1].outputs[0]", "dangling edge"},
		{"unknown source queue", mut(func(s *Spec) { s.Graph.Source.Queue = "ghost" }), "graph.source.queue", "unknown queue"},
		{"missing sink queue", mut(func(s *Spec) { s.Graph.Sink.Queue = "" }), "graph.sink.queue", "required"},
		{"unknown placement", mut(func(s *Spec) { s.Graph.Placement = "random" }), "graph.placement", "unknown placement"},
		{"balanced with core", mut(func(s *Spec) { s.Graph.Placement = PlacementBalanced }), "graph.tasks[0].core", "balanced placement"},
		{"explicit without core", mut(func(s *Spec) { s.Graph.Tasks[0].Core = nil }), "graph.tasks[0].core", "requires a core"},
		{"negative core", mut(func(s *Spec) { s.Graph.Tasks[0].Core = &neg }), "graph.tasks[0].core", "negative"},
		{"queue cap huge", mut(func(s *Spec) { s.Graph.QueueCap = maxQueueCap + 1 }), "graph.queue_cap", "outside"},
		{"per-queue cap negative", mut(func(s *Spec) { s.Graph.Queues[0].Cap = -3 }), "graph.queues[0].cap", "outside"},
		{"sink prefill over default cap", mut(func(s *Spec) { s.Graph.Sink.Prefill = 12 }), "graph.sink.prefill", "exceeds the sink queue's capacity 11"},
		{"sink prefill over queue cap", mut(func(s *Spec) {
			s.Graph.Queues[2].Cap = 20
			s.Graph.QueueCap = 30
			s.Graph.Sink.Prefill = 21
		}), "graph.sink.prefill", "exceeds the sink queue's capacity 20"},
		{"state bytes huge", mut(func(s *Spec) { s.Graph.Tasks[0].StateBytes = 2 * maxTaskBytes }), "graph.tasks[0].state_bytes", "outside"},
		{"cores over limit", mut(func(s *Spec) { s.Platform.Cores = maxSpecCores + 1 }), "platform.cores", "outside"},
		{"tile sum mismatch", mut(func(s *Spec) {
			s.Platform.Cores = 5
			s.Platform.Tiles = []TileSpec{{Count: 2}, {Count: 2}}
		}), "platform.cores", "does not match"},
		{"tile scale absurd", mut(func(s *Spec) { s.Platform.Tiles = []TileSpec{{Count: 3, Scale: 100}} }), "platform.tiles[0].scale", "outside"},
		{"ambient nonphysical", mut(func(s *Spec) { a := 500.0; s.Platform.AmbientC = &a }), "platform.ambient_c", "outside"},
		{"ladder duplicate", mut(func(s *Spec) { s.Platform.LadderMHz = []float64{133, 266, 266} }), "platform.ladder_mhz[2]", "duplicate"},
		{"ladder nan", mut(func(s *Spec) { s.Platform.LadderMHz = []float64{math.NaN()} }), "platform.ladder_mhz[0]", "finite"},
		{"power config unknown", mut(func(s *Spec) { s.Platform.Power = &PowerSpec{Config: "conf9"} }), "platform.power.config", "unknown core config"},
		{"power vmin over vmax", mut(func(s *Spec) { s.Platform.Power = &PowerSpec{VMaxV: 1.0, VMinV: 1.2} }), "platform.power.vmin_v", "exceeds vmax_v"},
		{"modulation unknown kind", mut(func(s *Spec) { s.Modulation = &ModulationSpec{Kind: "square"} }), "modulation.kind", "unknown modulation"},
		{"modulation lo over hi", mut(func(s *Spec) { s.Modulation = &ModulationSpec{Kind: ModPhaseShift, Hi: 0.5, Lo: 0.9} }), "modulation.lo", "exceeds hi"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireProblem(t, tc.sp, tc.path, tc.msgFrag)
		})
	}
}

// TestValidateCycle: a task graph where t0 -> q -> t1 -> q' -> t0 must
// be rejected as a cycle, not hang the bounded-queue engine.
func TestValidateCycle(t *testing.T) {
	c0, c1 := 0, 1
	sp := Spec{
		Graph: GraphSpec{
			Queues: []QueueSpec{{Name: "in"}, {Name: "ab"}, {Name: "ba"}, {Name: "out"}},
			Tasks: []TaskSpec{
				{Name: "a", FSE: 0.3, Inputs: []string{"in", "ba"}, Outputs: []string{"ab"}, Core: &c0},
				{Name: "b", FSE: 0.3, Inputs: []string{"ab"}, Outputs: []string{"ba", "out"}, Core: &c1},
			},
			Source: SourceSpec{Queue: "in"},
			Sink:   SinkSpec{Queue: "out"},
		},
	}
	_, err := sp.Normalize()
	if err == nil {
		t.Fatal("cyclic graph accepted")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error does not mention the cycle: %v", err)
	}
	// Self-loop: a task consuming its own output directly.
	sp2 := validMinimalSpec()
	sp2.Graph.Tasks[0].Inputs = append(sp2.Graph.Tasks[0].Inputs, "mid")
	if err := sp2.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("self-loop not rejected as cycle: %v", err)
	}
}

// TestValidateCollectsAllProblems: validation reports every problem in
// one pass, in deterministic order, not just the first.
func TestValidateCollectsAllProblems(t *testing.T) {
	sp := validMinimalSpec()
	sp.Graph.Tasks[0].FSE = 7
	sp.Graph.Tasks[1].FSE = -1
	sp.Platform.Cores = -4
	_, err := sp.Normalize()
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("expected *SpecError, got %v", err)
	}
	if len(se.Problems) != 3 {
		t.Fatalf("expected 3 problems, got %d: %v", len(se.Problems), se.Problems)
	}
	// Deterministic: same spec, same error string.
	_, err2 := sp.Normalize()
	if err.Error() != err2.Error() {
		t.Fatalf("validation error unstable:\n%v\n%v", err, err2)
	}
}

// TestCanonicalBytesStability: the canonical serialization is label-free
// and insensitive to spelled-out defaults — every spelling of the same
// workload yields identical bytes and the same hash.
func TestCanonicalBytesStability(t *testing.T) {
	base := validMinimalSpec()
	want, err := base.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}

	// Same workload, different labels and explicit defaults.
	alt := validMinimalSpec()
	alt.Name = "renamed"
	alt.Description = "entirely different prose"
	alt.WarmupS = 99
	alt.MeasureS = 7
	alt.DefaultPolicy = "greedy-remap"
	alt.DefaultDelta = 5
	alt.Graph.FramePeriodS = 0.020
	alt.Graph.FMaxHz = 533e6
	alt.Graph.QueueCap = 11
	alt.Graph.Placement = PlacementExplicit
	alt.Graph.Source.PeriodS = 0.020
	alt.Graph.Sink.PeriodS = 0.020
	alt.Platform.Cores = 3
	got, err := alt.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("canonical bytes differ for equivalent spellings:\n%s\n%s", want, got)
	}
	if base.Hash() != alt.Hash() {
		t.Fatal("equivalent spellings hash apart")
	}

	// A semantic change must change the bytes.
	sem := validMinimalSpec()
	sem.Graph.Tasks[0].FSE = 0.51
	semBytes, err := sem.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, semBytes) {
		t.Fatal("semantic change did not change canonical bytes")
	}

	// Ladder order is canonicalized.
	l1, l2 := validMinimalSpec(), validMinimalSpec()
	l1.Platform.LadderMHz = []float64{133, 266, 533}
	l2.Platform.LadderMHz = []float64{533, 133, 266}
	if l1.Hash() != l2.Hash() {
		t.Fatal("ladder order changed the hash")
	}
}

// TestHashPanicsOnInvalid: Hash is documented to panic when handed an
// invalid spec — callers validate first.
func TestHashPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hash of an invalid spec did not panic")
		}
	}()
	Spec{}.Hash()
}
