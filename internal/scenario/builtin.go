package scenario

import "fmt"

// onCore is an explicit task placement.
func onCore(c int) *int { return &c }

// queues declares default-capacity queues in order.
func queues(names ...string) []QueueSpec {
	out := make([]QueueSpec, len(names))
	for i, n := range names {
		out[i] = QueueSpec{Name: n}
	}
	return out
}

// sdrGraph is the paper's benchmark, the Software Defined FM Radio of
// Figure 6 with the Table 2 loads and mapping:
//
//	SRC → [LPF] → [DEMOD] → { [BPF1], [BPF2], [BPF3] } → [SUM] → SINK
//
// The demodulator broadcasts each frame to all three band-pass filters
// (parallel equalizer structure); the consumer Σ needs one frame from
// every BPF to produce an output frame. Frames arrive every 20 ms (50
// audio frames per second) and queues hold 11 frames — the graph
// defaults.
//
// Table 2 gives per-task loads at the core's running frequency; the FSE
// values are those loads rescaled to the 533 MHz maximum:
//
//	Core 1 (533 MHz): BPF1 36.7 %          → FSE 0.367
//	                  DEMOD 28.3 %         → FSE 0.283
//	Core 2 (266 MHz): BPF2 60.9 %          → FSE 0.304
//	                  Σ (SUM) 6.2 %        → FSE 0.031
//	Core 3 (266 MHz): BPF3 60.9 %          → FSE 0.304
//	                  LPF 18.8 %           → FSE 0.094
func sdrGraph() GraphSpec {
	return GraphSpec{
		Queues: queues("q:src-lpf", "q:lpf-demod",
			"q:demod-bpf1", "q:demod-bpf2", "q:demod-bpf3",
			"q:bpf1-sum", "q:bpf2-sum", "q:bpf3-sum", "q:sum-sink"),
		Tasks: []TaskSpec{
			{Name: "LPF", FSE: 0.188 * 266.0 / 533.0, Core: onCore(2),
				Inputs: []string{"q:src-lpf"}, Outputs: []string{"q:lpf-demod"}},
			{Name: "DEMOD", FSE: 0.283, Core: onCore(0),
				Inputs:  []string{"q:lpf-demod"},
				Outputs: []string{"q:demod-bpf1", "q:demod-bpf2", "q:demod-bpf3"}},
			{Name: "BPF1", FSE: 0.367, Core: onCore(0),
				Inputs: []string{"q:demod-bpf1"}, Outputs: []string{"q:bpf1-sum"}},
			{Name: "BPF2", FSE: 0.609 * 266.0 / 533.0, Core: onCore(1),
				Inputs: []string{"q:demod-bpf2"}, Outputs: []string{"q:bpf2-sum"}},
			{Name: "BPF3", FSE: 0.609 * 266.0 / 533.0, Core: onCore(2),
				Inputs: []string{"q:demod-bpf3"}, Outputs: []string{"q:bpf3-sum"}},
			{Name: "SUM", FSE: 0.062 * 266.0 / 533.0, Core: onCore(1),
				Inputs:  []string{"q:bpf1-sum", "q:bpf2-sum", "q:bpf3-sum"},
				Outputs: []string{"q:sum-sink"}},
		},
		Source: SourceSpec{Queue: "q:src-lpf"},
		Sink:   SinkSpec{Queue: "q:sum-sink"},
	}
}

// videoGraph is a second benchmark from the streaming multimedia class
// the paper targets (Section 5.1 calls the SDR "representative of a
// large class of streaming multimedia applications"): a software video
// decoder pipeline in the style of an MPEG-2/H.263 decoder at 25
// frames/s:
//
//	SRC → [VLD] → [IQ] → { [IDCT1], [IDCT2] } → [MC] → [OUT] → SINK
//
// Variable-length decoding (VLD) feeds inverse quantisation (IQ); the
// inverse DCT is data-parallel across two workers; motion compensation
// (MC) joins them and the output stage (OUT) colour-converts. Loads are
// representative of software decoders on 533 MHz-class RISC cores.
//
// The mapping is first-fit by pipeline order, the kind a developer
// writes before profiling: the front of the pipeline piles onto core 1
// (FSE 0.78 → 533 MHz) while core 3 idles at 133 MHz (FSE 0.12). It is
// deliberately thermally unbalanced — the situation the balancing
// policy is for.
func videoGraph() GraphSpec {
	return GraphSpec{
		FramePeriodS: 0.040,
		Queues: queues("v:src-vld", "v:vld-iq", "v:iq-idct1", "v:iq-idct2",
			"v:idct1-mc", "v:idct2-mc", "v:mc-out", "v:out-sink"),
		Tasks: []TaskSpec{
			{Name: "VLD", FSE: 0.22, Core: onCore(0),
				Inputs: []string{"v:src-vld"}, Outputs: []string{"v:vld-iq"}},
			{Name: "IQ", FSE: 0.10, Core: onCore(1),
				Inputs: []string{"v:vld-iq"}, Outputs: []string{"v:iq-idct1", "v:iq-idct2"}},
			{Name: "IDCT1", FSE: 0.26, Core: onCore(0),
				Inputs: []string{"v:iq-idct1"}, Outputs: []string{"v:idct1-mc"}},
			{Name: "IDCT2", FSE: 0.26, Core: onCore(1),
				Inputs: []string{"v:iq-idct2"}, Outputs: []string{"v:idct2-mc"}},
			{Name: "MC", FSE: 0.30, Core: onCore(0),
				Inputs: []string{"v:idct1-mc", "v:idct2-mc"}, Outputs: []string{"v:mc-out"}},
			{Name: "OUT", FSE: 0.12, Core: onCore(2),
				Inputs: []string{"v:mc-out"}, Outputs: []string{"v:out-sink"}},
		},
		Source: SourceSpec{Queue: "v:src-vld"},
		Sink:   SinkSpec{Queue: "v:out-sink"},
	}
}

// registerBuiltin registers a catalogue spec under its topology label.
// Failing at init beats a catalogue entry that only errors at run time.
func registerBuiltin(sp Spec, topology string) {
	s, err := FromSpec(sp)
	if err != nil {
		panic(fmt.Sprintf("scenario: builtin %q: %v", sp.Name, err))
	}
	s.Topology = topology
	Register(s)
}

func init() {
	// 3-core builtins run the balancing policy at ±3 °C by default.
	threeCore := func(name, desc string, g GraphSpec) Spec {
		return Spec{Name: name, Description: desc, Graph: g, DefaultPolicy: "thermal-balance", DefaultDelta: 3}
	}

	// The two paper workloads, with their hand mappings.
	registerBuiltin(threeCore(DefaultName,
		"the paper's Software Defined FM Radio (Figure 6, Table 2 mapping)", sdrGraph()),
		"pipeline with 3-way equalizer split")
	registerBuiltin(threeCore("video-decoder",
		"software video decoder pipeline, deliberately unbalanced first-fit mapping", videoGraph()),
		"pipeline with 2-way IDCT split")

	// Bursty phase-shifting load on the SDR graph: the hot spot moves
	// between task groups every few seconds, so a static mapping is
	// wrong half the time by construction.
	bursty := threeCore("bursty-sdr",
		"SDR graph with phase-shifting load (hot/cold task groups swap every 4 s)", sdrGraph())
	bursty.Modulation = &ModulationSpec{Kind: ModPhaseShift}
	registerBuiltin(bursty, "SDR pipeline, FSE modulated over time")

	// Deep pipelines: every stage sits on the critical path, so freeze
	// filtering decides whether migrations are affordable at all.
	for _, depth := range []int{4, 8, 16} {
		registerBuiltin(threeCore(fmt.Sprintf("pipeline-d%d", depth),
			fmt.Sprintf("deep linear pipeline, %d seeded-load stages on the critical path", depth),
			pipelineGraph(depth, int64(depth))),
			fmt.Sprintf("pipeline depth %d", depth))
	}

	// Fan-out/fan-in: many same-shape workers make the pairing space
	// large; w4 is perfectly symmetric, w8 has a seeded skew.
	registerBuiltin(threeCore("fanout-w4",
		"symmetric 4-way fan-out/fan-in, degenerate pairing space", fanOutGraph(4, 0)),
		"split/join width 4")
	registerBuiltin(threeCore("fanout-w8",
		"skewed 8-way fan-out/fan-in with seeded worker loads", fanOutGraph(8, 88)),
		"split/join width 8")

	// Many-core scaling: generated workloads on platforms built by
	// tiling the MPSoC floorplan, ~0.45 FSE budget per core. Shorter
	// default windows keep the full matrix tractable.
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		g, err := SplitJoin(int64(n), n/2+4, 3, 0.45*float64(n))
		if err != nil {
			panic(fmt.Sprintf("scenario: builtin manycore-%d: %v", n, err))
		}
		registerBuiltin(Spec{
			Name:          fmt.Sprintf("manycore-%d", n),
			Description:   fmt.Sprintf("seeded split/join workload on a %d-core tiled die", n),
			Graph:         g,
			Platform:      PlatformSpec{Cores: n},
			WarmupS:       5,
			MeasureS:      10,
			DefaultPolicy: "thermal-balance",
			DefaultDelta:  2,
		}, fmt.Sprintf("generated split/join, %d cores", n))
	}
}
