package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"thermbal/internal/policy"
	"thermbal/internal/sim"
	"thermbal/internal/stream"
)

// roundTrip sends a spec through its JSON form, as spec files and
// inline service requests carry it.
func roundTrip(t *testing.T, sp Spec) Spec {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// requireGraphsIdentical compares two stream graphs exactly: queue
// names and capacities, task fields down to the float bits of
// CyclesPerFrame, wiring indices, and source/sink configuration.
func requireGraphsIdentical(t *testing.T, name string, want, got *stream.Graph) {
	t.Helper()
	if want.NumQueues() != got.NumQueues() {
		t.Fatalf("%s: queue count %d != %d", name, got.NumQueues(), want.NumQueues())
	}
	for qi := 0; qi < want.NumQueues(); qi++ {
		wq, gq := want.Queue(qi), got.Queue(qi)
		if wq.Name() != gq.Name() || wq.Cap() != gq.Cap() {
			t.Fatalf("%s: queue %d: got %s/cap%d, want %s/cap%d",
				name, qi, gq.Name(), gq.Cap(), wq.Name(), wq.Cap())
		}
	}
	if want.NumTasks() != got.NumTasks() {
		t.Fatalf("%s: task count %d != %d", name, got.NumTasks(), want.NumTasks())
	}
	for ti := 0; ti < want.NumTasks(); ti++ {
		wt, gt := want.Task(ti), got.Task(ti)
		if wt.Name != gt.Name {
			t.Fatalf("%s: task %d name %q != %q", name, ti, gt.Name, wt.Name)
		}
		if math.Float64bits(wt.FSE) != math.Float64bits(gt.FSE) {
			t.Fatalf("%s: task %s FSE bits differ: %x != %x", name, wt.Name,
				math.Float64bits(gt.FSE), math.Float64bits(wt.FSE))
		}
		if math.Float64bits(wt.CyclesPerFrame) != math.Float64bits(gt.CyclesPerFrame) {
			t.Fatalf("%s: task %s CyclesPerFrame bits differ: %x != %x", name, wt.Name,
				math.Float64bits(gt.CyclesPerFrame), math.Float64bits(wt.CyclesPerFrame))
		}
		if wt.StateBytes != gt.StateBytes || wt.CodeBytes != gt.CodeBytes {
			t.Fatalf("%s: task %s bytes differ: state %g/%g code %g/%g",
				name, wt.Name, gt.StateBytes, wt.StateBytes, gt.CodeBytes, wt.CodeBytes)
		}
		if wt.Core != gt.Core {
			t.Fatalf("%s: task %s core %d != %d", name, wt.Name, gt.Core, wt.Core)
		}
		if !reflect.DeepEqual(want.Inputs(ti), got.Inputs(ti)) {
			t.Fatalf("%s: task %s inputs %v != %v", name, wt.Name, got.Inputs(ti), want.Inputs(ti))
		}
		if !reflect.DeepEqual(want.Outputs(ti), got.Outputs(ti)) {
			t.Fatalf("%s: task %s outputs %v != %v", name, wt.Name, got.Outputs(ti), want.Outputs(ti))
		}
	}
	wsq, wsp := want.SourceConfig()
	gsq, gsp := got.SourceConfig()
	if wsq != gsq || math.Float64bits(wsp) != math.Float64bits(gsp) {
		t.Fatalf("%s: source %d/%g != %d/%g", name, gsq, gsp, wsq, wsp)
	}
	wkq, wkp, wkf := want.SinkConfig()
	gkq, gkp, gkf := got.SinkConfig()
	if wkq != gkq || math.Float64bits(wkp) != math.Float64bits(gkp) || wkf != gkf {
		t.Fatalf("%s: sink %d/%g/%d != %d/%g/%d", name, gkq, gkp, gkf, wkq, wkp, wkf)
	}
}

// TestBuiltinSpecsCompileBitForBit pins every builtin's spec to its
// golden digests — the content address, the full spec JSON and the
// catalogue entry — and requires the registered spec and its JSON round
// trip to compile to identical graphs, under default options and under
// a queue-capacity override.
func TestBuiltinSpecsCompileBitForBit(t *testing.T) {
	pinned := loadSpecDigests(t)
	for _, s := range All() {
		t.Run(s.Name, func(t *testing.T) {
			if got, want := digestOf(t, s), pinned.Builtins[s.Name]; got != want {
				t.Fatalf("spec digest %+v, pinned %+v", got, want)
			}
			for _, o := range []Options{{}, {QueueCap: 5}} {
				registered, err := s.Instantiate(o)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				fromJSON, err := Compile(roundTrip(t, *s.Spec), o)
				if err != nil {
					t.Fatalf("compile round trip: %v", err)
				}
				requireGraphsIdentical(t, s.Name, registered.Graph, fromJSON.Graph)
				if registered.Platform.NumCores() != s.Cores {
					t.Fatalf("platform cores %d != %d", registered.Platform.NumCores(), s.Cores)
				}
				if (registered.Modulate == nil) != (s.Spec.Modulation == nil) {
					t.Fatalf("modulator presence %v, spec modulation %v",
						registered.Modulate != nil, s.Spec.Modulation != nil)
				}
			}
			// The override reaches every defaultable queue, and the
			// derived sink prefill follows it: (5+1)/2 = 3 frames.
			inst, err := s.Instantiate(Options{QueueCap: 5})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range s.Spec.Graph.Queues {
				want := q.Cap
				if want == 0 {
					want = 5
				}
				if got := inst.Graph.Queue(qi).Cap(); got != want {
					t.Errorf("queue %s cap %d under override, want %d", q.Name, got, want)
				}
			}
			if _, _, prefill := inst.Graph.SinkConfig(); prefill != 3 {
				t.Errorf("sink prefill %d under queue cap 5, want 3", prefill)
			}
		})
	}
}

// TestBuiltinSpecsRunBitForBit runs a subset of builtins end to end
// from the registered spec and from its JSON round trip and requires
// identical summaries — every metric, bit for bit. This catches any
// divergence the structural comparison cannot see (platform assembly,
// modulators).
func TestBuiltinSpecsRunBitForBit(t *testing.T) {
	for _, name := range []string{
		"sdr-radio", "video-decoder", "bursty-sdr", "pipeline-d8", "fanout-w8", "manycore-8",
	} {
		t.Run(name, func(t *testing.T) {
			sc, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			run := func(inst *Instance) sim.Result {
				t.Helper()
				pol, err := policy.New(sc.DefaultPolicy, policy.Args{Delta: sc.DefaultDelta})
				if err != nil {
					t.Fatal(err)
				}
				e, err := sim.New(sim.Config{
					PolicyStartS:  1,
					MeasureStartS: 1,
					Modulate:      inst.Modulate,
				}, inst.Platform, inst.Graph, pol)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Run(3); err != nil {
					t.Fatal(err)
				}
				return e.Summarize()
			}
			registered, err := sc.Instantiate(Options{})
			if err != nil {
				t.Fatal(err)
			}
			fromJSON, err := Compile(roundTrip(t, *sc.Spec), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := run(registered), run(fromJSON); !reflect.DeepEqual(a, b) {
				t.Fatalf("summaries differ:\nregistered: %+v\nround trip: %+v", a, b)
			}
		})
	}
}

// TestBuiltinNameForSpec checks the spec-hash index both ways: every
// builtin's exported spec resolves to its own name, and a perturbed
// spec does not resolve at all.
func TestBuiltinNameForSpec(t *testing.T) {
	for _, s := range All() {
		name, ok := BuiltinNameForSpec(*s.Spec)
		if !ok || name != s.Name {
			t.Errorf("%s: BuiltinNameForSpec = %q, %v", s.Name, name, ok)
		}
		// Labels are not part of the identity: renaming still matches.
		renamed := *s.Spec
		renamed.Name = "something-else"
		if name, ok := BuiltinNameForSpec(renamed); !ok || name != s.Name {
			t.Errorf("%s: renamed spec did not match: %q, %v", s.Name, name, ok)
		}
	}
	sc, _ := Lookup(DefaultName)
	perturbed := *sc.Spec
	perturbed.Graph.Tasks = append([]TaskSpec(nil), perturbed.Graph.Tasks...)
	perturbed.Graph.Tasks[0].FSE *= 1.5
	if name, ok := BuiltinNameForSpec(perturbed); ok {
		t.Errorf("perturbed spec matched %q", name)
	}
}

// TestGenerateDeterministicAndCompilable: same seed, same spec, same
// hash; different seeds differ; the result compiles and simulates.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(42), Generate(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate(42) is not deterministic")
	}
	if a.Hash() != b.Hash() {
		t.Fatal("equal generated specs hash apart")
	}
	c := Generate(43)
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds produced identical specs")
	}
	inst, err := Compile(a, Options{})
	if err != nil {
		t.Fatalf("generated spec does not compile: %v", err)
	}
	if inst.Graph.NumTasks() == 0 {
		t.Fatal("generated graph is empty")
	}
	sc, err := FromSpec(a)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "gen-42" {
		t.Fatalf("generated scenario name %q", sc.Name)
	}
}

// TestCompileHeteroTiles compiles a spec with asymmetric core tiles and
// checks the die came out heterogeneous.
func TestCompileHeteroTiles(t *testing.T) {
	sc, _ := Lookup(DefaultName)
	sp := *sc.Spec
	sp.Platform = PlatformSpec{
		Cores: 3,
		Tiles: []TileSpec{{Count: 1, Scale: 1.5}, {Count: 2, Scale: 1}},
	}
	inst, err := Compile(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Platform.NumCores() != 3 {
		t.Fatalf("hetero platform has %d cores", inst.Platform.NumCores())
	}
	// The scaled tile must differ thermally from the homogeneous die —
	// identical hashes would mean the tiles were ignored.
	if h, ok := BuiltinNameForSpec(sp); ok {
		t.Fatalf("hetero spec unexpectedly matched builtin %q", h)
	}
}
