package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/policy"
	"thermbal/internal/scenario"
	"thermbal/internal/service"
	"thermbal/internal/sim"
	"thermbal/internal/thermal"
)

// cell is one canonical run of a batch workload.
type cell struct {
	canon service.Request
	rc    experiment.RunConfig
	key   string
	simS  float64
}

func prepareCells(reqs []service.Request) ([]cell, error) {
	cells := make([]cell, len(reqs))
	for i, r := range reqs {
		canon, rc, err := service.Canonicalize(r)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		cells[i] = cell{canon: canon, rc: rc, key: canon.Key(), simS: canon.WarmupS + canon.MeasureS}
	}
	return cells, nil
}

// runCell is the untraced path: experiment.Run, then the one encoder
// every run document goes through, exactly as the server's executeRun
// and `thermsim -json` produce it.
func runCell(c cell) ([]byte, error) {
	res, _, err := experiment.Run(c.rc)
	if err != nil {
		return nil, err
	}
	return service.EncodeDoc(service.NewRunDoc(c.canon, res))
}

// startCell builds c's scenario, platform, policy and engine, as
// experiment.Run does, and runs the first setupSimS simulated seconds.
func startCell(c cell) error {
	sc, err := lookupScenario(c.canon)
	if err != nil {
		return err
	}
	inst, err := sc.Instantiate(scenario.Options{QueueCap: c.rc.QueueCap, Package: c.rc.Package.Package()})
	if err != nil {
		return err
	}
	pol, err := policy.New(c.rc.PolicyName, policy.Args{Delta: c.rc.Delta})
	if err != nil {
		return err
	}
	warm, _ := experiment.Phases(sc, c.rc.WarmupS, c.rc.MeasureS)
	e, err := sim.New(sim.Config{
		PolicyStartS: warm, MeasureStartS: warm, Mechanism: c.rc.Mechanism,
		Thermal: c.rc.Thermal, Modulate: inst.Modulate,
	}, inst.Platform, inst.Graph, pol)
	if err != nil {
		return err
	}
	return e.Run(setupSimS)
}

// lookupScenario resolves a canonical request's scenario: its inline
// spec, else the registry entry.
func lookupScenario(canon service.Request) (scenario.Scenario, error) {
	if canon.Spec != nil {
		return scenario.FromSpec(*canon.Spec)
	}
	return scenario.Lookup(canon.Scenario)
}

// cellProbe is what the traced pipeline measures for one cell.
type cellProbe struct {
	compile, simNew, warmup, measure, summarize time.Duration
	canon, encode                               time.Duration
	warmupTicks, measureTicks                   int64
	expmHits, expmMisses                        int
}

// runCellTraced composes the run pipeline call by call — Canonicalize →
// Lookup/FromSpec → Phases → Instantiate → policy.New → sim.New → Run
// (warmup) → Run (measure) → Summarize → NewRunDoc → EncodeDoc — timing
// each public call as a span. It mirrors experiment.Run step for step;
// its document must be byte-identical to runCell's (the caller checks).
func runCellTraced(t *tracer, req int64, c cell) ([]byte, cellProbe, error) {
	var p cellProbe
	start := time.Now()
	root := t.reserve(req, "cell "+c.canon.Scenario, "experiment")
	defer func() { t.finish(root, start, time.Now()) }()
	mark := func(name, layer string, s time.Time) time.Duration {
		e := time.Now()
		t.add(req, root, name, layer, s, e)
		return e.Sub(s)
	}

	s := time.Now()
	canon, rc, err := service.Canonicalize(c.canon)
	if err != nil {
		return nil, p, err
	}
	_ = canon.Key()
	p.canon = mark("service.Canonicalize+Key", "service", s)

	s = time.Now()
	sc, err := lookupScenario(canon)
	if err != nil {
		return nil, p, err
	}
	p.compile = mark("scenario.Lookup", "scenario", s)

	s = time.Now()
	warm, meas := experiment.Phases(sc, rc.WarmupS, rc.MeasureS)
	mark("experiment.Phases", "experiment", s)

	s = time.Now()
	inst, err := sc.Instantiate(scenario.Options{QueueCap: rc.QueueCap, Package: rc.Package.Package()})
	if err != nil {
		return nil, p, err
	}
	p.compile += mark("scenario.Instantiate", "scenario", s)

	s = time.Now()
	pol, err := policy.New(rc.PolicyName, policy.Args{
		Delta: rc.Delta, MinInterval: rc.MinInterval, TopK: rc.TopK, MaxFreezeS: rc.MaxFreezeS,
	})
	if err != nil {
		return nil, p, err
	}
	mark("policy.New", "experiment", s)

	s = time.Now()
	e, err := sim.New(sim.Config{
		PolicyStartS:  warm,
		MeasureStartS: warm,
		Mechanism:     rc.Mechanism,
		RecordTrace:   rc.Trace,
		Thermal:       rc.Thermal,
		Modulate:      inst.Modulate,
		NoFastPath:    rc.NoFastPath,
	}, inst.Platform, inst.Graph, pol)
	if err != nil {
		return nil, p, err
	}
	if rc.Delta > 0 {
		e.SetOvershootDelta(rc.Delta)
	}
	p.simNew = mark("sim.New", "sim", s)

	s = time.Now()
	if err := e.Run(warm); err != nil {
		return nil, p, err
	}
	p.warmup = mark("sim.Engine.Run(warmup)", "sim", s)
	p.warmupTicks = e.Ticks()

	s = time.Now()
	if err := e.Run(meas); err != nil {
		return nil, p, err
	}
	p.measure = mark("sim.Engine.Run(measure)", "sim", s)
	p.measureTicks = e.Ticks() - p.warmupTicks
	p.expmHits, p.expmMisses, _, _, _ = thermal.ExpmStats(inst.Platform.Thermal.Net.Integrator())

	s = time.Now()
	res := e.Summarize()
	p.summarize = mark("sim.Engine.Summarize", "sim", s)

	s = time.Now()
	_ = experiment.Summarize(res)
	p.summarize += mark("experiment.Summarize", "experiment", s)

	s = time.Now()
	doc := service.NewRunDoc(canon, res)
	mark("service.NewRunDoc", "service", s)

	s = time.Now()
	body, err := service.EncodeDoc(doc)
	if err != nil {
		return nil, p, err
	}
	p.encode = mark("service.EncodeDoc", "service", s)
	return body, p, nil
}

// pass is one execution of every cell of a workload on the worker pool.
type pass struct {
	wall    time.Duration
	cellDur []time.Duration // by cell index
	doneAt  []time.Duration // completion offset from the pass start
	digest  [][32]byte      // SHA-256 of each cell's encoded document
	probes  []cellProbe     // traced passes only
}

// doneMs lists the pass's cell completion offsets in milliseconds.
func (p pass) doneMs() []float64 {
	out := make([]float64, len(p.doneAt))
	for i, d := range p.doneAt {
		out[i] = ms1(d)
	}
	return out
}

// runPass executes the cells on an experiment.Runner of the given
// width, in the given order. tr non-nil selects the traced pipeline.
func runPass(ctx context.Context, workers int, cells []cell, order []int, tr *tracer, reqBase int64) (pass, error) {
	n := len(cells)
	p := pass{cellDur: make([]time.Duration, n), doneAt: make([]time.Duration, n), digest: make([][32]byte, n)}
	if tr != nil {
		p.probes = make([]cellProbe, n)
	}
	start := time.Now()
	err := experiment.Runner{Workers: workers}.ForEach(ctx, n, func(_ context.Context, k int) error {
		i := order[k]
		s := time.Now()
		var body []byte
		var err error
		if tr != nil {
			body, p.probes[i], err = runCellTraced(tr, reqBase+int64(i), cells[i])
		} else {
			body, err = runCell(cells[i])
		}
		if err != nil {
			return fmt.Errorf("cell %d (%s): %w", i, cells[i].key, err)
		}
		e := time.Now()
		p.cellDur[i] = e.Sub(s)
		p.doneAt[i] = e.Sub(start)
		p.digest[i] = sha256.Sum256(body)
		return nil
	})
	p.wall = time.Since(start)
	return p, err
}

// workloadDigest folds the per-cell document digests, in canonical cell
// order, into the one value pinned per workload.
func workloadDigest(cells []cell, digests [][32]byte) string {
	h := sha256.New()
	for i, c := range cells {
		fmt.Fprintf(h, "%s %x\n", c.key, digests[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchRun is the state of one batch-workload run.
type batchRun struct {
	w       *workload
	cells   []cell
	workers int
	ref     [][32]byte // reference digests, from the warm-up pass
	rng     *rand.Rand

	attempted, failed int
	problems          []string
}

func newBatchRun(w *workload, o runOpts) (*batchRun, error) {
	cells, err := prepareCells(w.cells())
	if err != nil {
		return nil, err
	}
	return &batchRun{
		w: w, cells: cells,
		workers: min(runtime.NumCPU(), len(cells)),
		rng:     rand.New(rand.NewPCG(uint64(o.seed), 0x7468_6572_6d62)),
	}, nil
}

func (b *batchRun) problem(format string, args ...any) {
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// order returns a seed-determined permutation of the cells: the seed
// varies which cells share the pool at once, never what they compute.
func (b *batchRun) order() []int {
	return b.rng.Perm(len(b.cells))
}

// check compares every document digest of a pass with the reference.
func (b *batchRun) check(p pass) {
	for i := range b.cells {
		b.attempted++
		if p.digest[i] != b.ref[i] {
			b.problem("cell %s: document digest %x differs from the reference %x", b.cells[i].key, p.digest[i][:8], b.ref[i][:8])
		}
	}
}

// warmUp runs the first pass, checks it against the pinned workload
// digest, and keeps its per-cell digests as the reference every later
// document must equal.
func (b *batchRun) warmUp(ctx context.Context) error {
	p, err := runPass(ctx, b.workers, b.cells, b.order(), nil, 0)
	if err != nil {
		return err
	}
	b.ref = p.digest
	b.attempted += len(b.cells)
	got := workloadDigest(b.cells, p.digest)
	want, ok := pinnedDigest(b.w.name)
	switch {
	case !ok:
		b.problem("no digest pinned for %s on %s", b.w.name, runtime.GOARCH)
	case got != want:
		b.problem("workload digest %s differs from the pinned %s", got, want)
	}
	return nil
}

// measured runs untraced passes until the deadline.
func (b *batchRun) measured(ctx context.Context, until time.Time) ([]pass, error) {
	var out []pass
	for len(out) == 0 || time.Now().Before(until) {
		p, err := runPass(ctx, b.workers, b.cells, b.order(), nil, 0)
		if err != nil {
			return out, err
		}
		b.check(p)
		out = append(out, p)
	}
	return out, nil
}

// batchMetrics fills the end-to-end metrics from untraced passes. The
// host's speed drifts by tens of percent over seconds to minutes (other
// tenants), and that noise only ever adds time to deterministic work,
// so the timings are best-of estimates over measured executions:
// run_ms_p50 is the median over cells of their best wall times,
// lat_ms_p50 the lowest median cell completion offset of any pass, and
// the other pass-level metrics come from the fastest measured pass. A
// pass's completion offsets depend on its cell order, which each pass
// draws afresh, so lat_ms_p50 takes the best pass on its own terms. The
// record keeps every pass's figure in the metrics' quartiles.
func (b *batchRun) batchMetrics(ms metricSet, passes []pass) {
	best := make([]float64, len(b.cells))
	for i := range b.cells {
		best[i] = math.Inf(1)
	}
	var passMs, passLat []float64
	fastest := passes[0]
	for _, p := range passes {
		passMs = append(passMs, ms1(p.wall))
		passLat = append(passLat, median(p.doneMs()))
		if p.wall < fastest.wall {
			fastest = p
		}
		for i := range b.cells {
			best[i] = math.Min(best[i], ms1(p.cellDur[i]))
		}
	}
	var simS float64
	for _, c := range b.cells {
		simS += c.simS
	}
	wallMs := ms1(fastest.wall)
	ms.setDist("run_ms_p50", best, 0.5)
	ms.setBest("lat_ms_p50", passLat, false)
	ms.setDist("lat_ms_p99", fastest.doneMs(), 0.99)
	ms.setBest("matrix_ms_p50", passMs, false)
	ms.set("sim_s_per_host_s", simS/(wallMs/1e3))
	ms.set("slo_rps", float64(len(b.cells))/(wallMs/1e3))
}

// poolBusy is the share of worker time the pool spent inside cells.
func (b *batchRun) poolBusy(passes []pass) float64 {
	var busy, avail time.Duration
	for _, p := range passes {
		for _, d := range p.cellDur {
			busy += d
		}
		avail += time.Duration(b.workers) * p.wall
	}
	return busy.Seconds() / avail.Seconds()
}

// traced runs traced passes until the deadline; every document must
// equal the untraced reference byte for byte (by digest).
func (b *batchRun) traced(ctx context.Context, tr *tracer, until time.Time) ([]pass, error) {
	var out []pass
	for len(out) == 0 || time.Now().Before(until) {
		p, err := runPass(ctx, b.workers, b.cells, b.order(), tr, int64(len(out)*len(b.cells)))
		if err != nil {
			return out, err
		}
		b.check(p)
		out = append(out, p)
	}
	return out, nil
}

// layerMetrics fills the engine-side per-layer metrics from traced
// passes, plus the thermal-step estimate from a separate platform.
func layerMetrics(ms metricSet, cells []cell, passes []pass) error {
	var compile, simNew, summarize, warmNs, measNs, canon, encode []float64
	var hits, misses int
	var runDur time.Duration
	for _, p := range passes {
		for i := range cells {
			pr := p.probes[i]
			compile = append(compile, ms1(pr.compile))
			simNew = append(simNew, ms1(pr.simNew))
			summarize = append(summarize, us1(pr.summarize))
			canon = append(canon, us1(pr.canon))
			encode = append(encode, us1(pr.encode))
			warmNs = append(warmNs, float64(pr.warmup.Nanoseconds())/float64(max(pr.warmupTicks, 1)))
			measNs = append(measNs, float64(pr.measure.Nanoseconds())/float64(max(pr.measureTicks, 1)))
			hits += pr.expmHits
			misses += pr.expmMisses
			runDur += pr.warmup + pr.measure
		}
	}
	ms.setDist("scenario.compile_ms", compile, 0.5)
	ms.setDist("sim.new_ms", simNew, 0.5)
	ms.setDist("sim.summarize_us", summarize, 0.5)
	ms.setDist("sim.warmup_ns_per_tick", warmNs, 0.5)
	ms.setDist("sim.measure_ns_per_tick", measNs, 0.5)
	ms.setDist("service.canon_us", canon, 0.5)
	ms.setDist("service.encode_us", encode, 0.5)
	var ticks int64
	for _, pr := range passes[0].probes {
		ticks += pr.warmupTicks + pr.measureTicks
	}
	ms.set("sim.ticks", float64(ticks))
	ms.set("thermal.expm_hit_ratio", ratio(float64(hits), float64(hits+misses)))

	// Thermal step: Model.Step for one sensor period on a separate
	// instance of each cell's platform. The share is an outside
	// estimate — step cost × sensor periods ÷ Engine.Run time — since
	// the engine's own thermal calls cannot be timed from outside.
	var stepUs []float64
	var stepTotal time.Duration
	steps := map[string]time.Duration{} // cells on one platform share a measurement
	for i, c := range cells {
		id := c.canon.Scenario + "|" + c.canon.Package + "|" + c.canon.Integrator
		if c.canon.Spec != nil {
			id += "|" + c.canon.Spec.Hash()
		}
		d, ok := steps[id]
		if !ok {
			var err error
			if d, err = thermalStep(c); err != nil {
				return err
			}
			steps[id] = d
		}
		stepUs = append(stepUs, us1(d))
		periods := float64(passes[0].probes[i].warmupTicks+passes[0].probes[i].measureTicks) / ticksPerSensorPeriod
		stepTotal += time.Duration(float64(d) * periods * float64(len(passes)))
	}
	ms.set("thermal.step_us", sum(stepUs)/float64(len(stepUs)))
	ms.set("thermal.step_share", ratio(stepTotal.Seconds(), runDur.Seconds()))
	return nil
}

// ticksPerSensorPeriod is the engine's default sensor period (10 ms) in
// default ticks (100 µs); the thermal model advances once per period.
const ticksPerSensorPeriod = 100

// sensorPeriodS is the engine's default sensor period.
const sensorPeriodS = 10e-3

// thermalStep times Model.Step over one sensor period on a fresh
// instance of c's platform with c's integrator, at a fixed block power.
func thermalStep(c cell) (time.Duration, error) {
	sc, err := lookupScenario(c.canon)
	if err != nil {
		return 0, err
	}
	inst, err := sc.Instantiate(scenario.Options{QueueCap: c.rc.QueueCap, Package: c.rc.Package.Package()})
	if err != nil {
		return 0, err
	}
	m := inst.Platform.Thermal
	m.Net.SetIntegrator(thermal.NewIntegrator(c.rc.Thermal))
	pw := make([]float64, len(m.FP.Blocks))
	for i := range pw {
		pw[i] = 0.25
	}
	if err := m.Step(sensorPeriodS, pw); err != nil { // first call builds any propagator
		return 0, err
	}
	var samples []float64
	deadline := time.Now().Add(20 * time.Millisecond)
	for len(samples) < 5 || (time.Now().Before(deadline) && len(samples) < 1000) {
		s := time.Now()
		if err := m.Step(sensorPeriodS, pw); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(s)))
	}
	return time.Duration(median(samples)), nil
}

func ms1(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us1(d time.Duration) float64 { return d.Seconds() * 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
