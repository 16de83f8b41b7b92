package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"thermbal/internal/cliutil"
	"thermbal/internal/experiment"
	"thermbal/internal/scenario"
	"thermbal/internal/service"
	"thermbal/internal/store"
)

// serveConfig parameterises a serve workload.
type serveConfig struct {
	hot bool
	// nominalRPS is the offered rate the latency metrics are read at;
	// the nominal rung takes three quarters of the window.
	nominalRPS float64
	// ladder are the higher offered rates (ascending) sharing the last
	// quarter of the window; slo_rps is read off nominal + ladder.
	ladder []float64
	// limitMs is the fixed /run p99 latency limit a rung must meet.
	limitMs float64
	// Hot key space: /run keys (about twice the 512-body default cache),
	// /matrix keys and matrix-job keys, with Zipf skew zipfS.
	runKeys, matrixKeys, jobKeys int
	zipfS                        float64
}

var (
	serveCold = serveConfig{
		nominalRPS: 60,
		ladder:     []float64{120, 150, 180, 210, 250},
		limitMs:    150,
	}
	serveHot = serveConfig{
		hot:        true,
		nominalRPS: 400,
		ladder:     []float64{1800, 2200, 2600, 3000, 3400},
		limitMs:    20,
		runKeys:    1024,
		matrixKeys: 32,
		jobKeys:    16,
		zipfS:      1.1,
	}
)

// Request mix shares: about 85% /run, 10% /matrix, 5% /jobs.
const (
	shareRun    = 0.85
	shareMatrix = 0.10
)

// serveWarmupS and serveMeasureS are every generated request's phases:
// short windows keep a cold /run at a few milliseconds of engine time.
const (
	serveWarmupS  = 2
	serveMeasureS = 3
)

// segmentBytes is the store's rotation threshold: small enough that every
// window rotates and seals several segments (the 8 MiB default would
// seal none).
const segmentBytes = 64 << 10

// sliceS is the length of the nominal rung's slices, over which the
// end-to-end metrics take their best (see endToEnd): each slice holds
// tens (serve-cold /matrix) to over a thousand (serve-hot /run)
// requests of a kind. Shorter slices spread more from run to run than
// they gain by skipping the host's slow spells.
const sliceS = 5.0

// warmupS is the unmeasured lead-in at the nominal rate: connections
// open, the server's goroutines and (serve-hot) its LRU warm up.
const warmupS = 1.0

// specPool is how many generated specs the /run requests cycle through.
// Every run draws on the same pool — scenario.Generate of seeds 1..24 —
// in blocks: the run's seed permutes each block, and every request gets
// its own Δ, so each is still a new content address while the engine
// work per block, and with it the latency distribution, does not change
// with the seed.
const specPool = 24

// generator builds the serve workloads' requests from the seed.
type generator struct {
	r     *rand.Rand
	n     int // requests built so far; makes every Δ unique
	pool  []service.Request
	block []int
}

func newGenerator(seed int64) (*generator, error) {
	g := &generator{r: rand.New(rand.NewPCG(uint64(seed), 0x67656e))}
	for i := 1; i <= specPool; i++ {
		spec := scenario.Generate(int64(i))
		req := service.Request{Spec: &spec, WarmupS: serveWarmupS, MeasureS: serveMeasureS}
		canon, _, err := service.Canonicalize(req)
		if err != nil {
			return nil, err
		}
		req.Delta = canon.Delta // the spec's own threshold, made explicit
		g.pool = append(g.pool, req)
	}
	return g, nil
}

// delta gives every matrix request of a run its own threshold, so each
// has a new content address (and so do a job's cells).
func (g *generator) delta() float64 { return 2 + float64(g.n)*1e-4 }

// run builds a /run with an inline generated spec and 2 s + 3 s windows:
// the next spec of the current block, its threshold nudged by a
// request-unique 1e-6 °C step.
func (g *generator) run() (*planned, error) {
	if len(g.block) == 0 {
		g.block = g.r.Perm(len(g.pool))
	}
	spec := g.block[0]
	req := g.pool[spec]
	g.block = g.block[1:]
	g.n++
	req.Delta += float64(g.n) * 1e-6
	canon, _, err := service.Canonicalize(req)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &planned{kind: kindRun, body: body, key: canon.Key(), simS: canon.WarmupS + canon.MeasureS, cells: 1}, nil
}

// matrixRequest builds a one-scenario sweep on one thermal package.
func (g *generator) matrixRequest(pkg string, policies ...string) service.MatrixRequest {
	g.n++
	return service.MatrixRequest{
		Scenarios: []string{"sdr-radio"}, Policies: policies, Delta: g.delta(),
		Package: pkg, WarmupS: serveWarmupS, MeasureS: serveMeasureS,
	}
}

// matrix builds a small synchronous sweep (two cells, its own Δ). Every
// sweep is on the same package, so their latencies form one cluster
// whose p50 is steady; a mix of packages would put the p50 between two.
func (g *generator) matrix() (*planned, error) {
	mr := g.matrixRequest("mobile-embedded", "thermal-balance", "stop-go")
	canon, _, err := service.CanonicalizeMatrix(mr)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(mr)
	if err != nil {
		return nil, err
	}
	return &planned{kind: kindMatrix, body: body, key: canon.Key(), simS: canon.WarmupS*2 + canon.MeasureS*2, cells: 2}, nil
}

// job builds a two-cell matrix job (its own Δ, so new cell keys too).
func (g *generator) job() (*planned, error) {
	mr := g.matrixRequest("high-performance", "energy-balance", "thermal-balance")
	canon, _, err := service.CanonicalizeMatrix(mr)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(service.JobRequest{Kind: "matrix", Matrix: &mr})
	if err != nil {
		return nil, err
	}
	return &planned{kind: kindJob, body: body, key: canon.Key(), simS: canon.WarmupS*2 + canon.MeasureS*2, cells: 2}, nil
}

// pick draws a request kind from the mix.
func pick(r *rand.Rand) reqKind {
	u := r.Float64()
	switch {
	case u < shareRun:
		return kindRun
	case u < shareRun+shareMatrix:
		return kindMatrix
	}
	return kindJob
}

// source hands out the window's requests: fresh ones (serve-cold) or
// Zipf-skewed repeats of the populated keys (serve-hot).
type source struct {
	cfg  *serveConfig
	r    *rand.Rand
	gen  *generator
	all  []*planned // every distinct request, in creation order
	runs []*planned // hot key tables, most popular first
	mats []*planned
	jobs []*planned
	zr   *rand.Zipf
	zm   *rand.Zipf
}

func newSource(cfg *serveConfig, seed int64) (*source, error) {
	gen, err := newGenerator(seed)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(uint64(seed), 0x73657276))
	return &source{cfg: cfg, r: r, gen: gen}, nil
}

func (s *source) add(p *planned, err error) (*planned, error) {
	if err != nil {
		return nil, err
	}
	p.idx = len(s.all)
	s.all = append(s.all, p)
	return p, nil
}

// populateHot builds the hot key tables (the set-up server executes them
// once) in a seed-shuffled popularity order.
func (s *source) populateHot() ([]*planned, error) {
	for i := 0; i < s.cfg.runKeys; i++ {
		p, err := s.add(s.gen.run())
		if err != nil {
			return nil, err
		}
		s.runs = append(s.runs, p)
	}
	for i := 0; i < s.cfg.matrixKeys; i++ {
		p, err := s.add(s.gen.matrix())
		if err != nil {
			return nil, err
		}
		s.mats = append(s.mats, p)
	}
	for i := 0; i < s.cfg.jobKeys; i++ {
		p, err := s.add(s.gen.job())
		if err != nil {
			return nil, err
		}
		s.jobs = append(s.jobs, p)
	}
	s.r.Shuffle(len(s.runs), func(i, j int) { s.runs[i], s.runs[j] = s.runs[j], s.runs[i] })
	s.r.Shuffle(len(s.mats), func(i, j int) { s.mats[i], s.mats[j] = s.mats[j], s.mats[i] })
	s.zr = rand.NewZipf(s.r, s.cfg.zipfS, 1, uint64(len(s.runs)-1))
	s.zm = rand.NewZipf(s.r, s.cfg.zipfS, 1, uint64(len(s.mats)-1))
	return append([]*planned(nil), s.all...), nil
}

// next returns the request for the next arrival.
func (s *source) next() (*planned, error) {
	k := pick(s.r)
	if s.cfg.hot {
		switch k {
		case kindMatrix:
			return s.mats[s.zm.Uint64()], nil
		case kindJob:
			return s.jobs[s.r.IntN(len(s.jobs))], nil
		}
		return s.runs[s.zr.Uint64()], nil
	}
	switch k {
	case kindMatrix:
		return s.add(s.gen.matrix())
	case kindJob:
		return s.add(s.gen.job())
	}
	return s.add(s.gen.run())
}

// rung is one constant-rate stretch of the schedule.
type rung struct {
	rate float64
	dur  float64 // seconds
}

// schedule lays out the arrivals of consecutive rungs at absolute,
// evenly spaced due times. Rung index -1 marks warm-up.
func (s *source) schedule(rungs []rung, firstIndex int) ([]item, error) {
	var items []item
	var off float64
	for ri, r := range rungs {
		n := int(r.rate*r.dur + 0.5)
		for k := 0; k < n; k++ {
			p, err := s.next()
			if err != nil {
				return nil, err
			}
			due := off + float64(k)/r.rate
			items = append(items, item{due: secs(due), req: p, rung: firstIndex + ri})
		}
		off += r.dur
	}
	return items, nil
}

// serveRun is the state of one serve-workload run.
type serveRun struct {
	cfg  *serveConfig
	o    runOpts
	src  *source
	dir  string // scratch root for this run's data dirs
	data string // the measured server's data dir
	srv  *server
	cl   *client

	attempted, failed int
	problems          []string
	shapeOK           bool
	// bodies keeps each successful /run and /matrix response by request
	// index, for the recompute oracle and the store probes.
	bodies map[int][]byte
	// jobIDs are the accepted jobs awaiting drain, by request.
	jobIDs []pendingJob
	// ok marks the items whose response passed every oracle.
	ok    []bool
	rungs []rungStats
}

type pendingJob struct {
	id  string
	req *planned
}

func (r *serveRun) problem(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *serveRun) serverArgs() []string {
	return []string{
		"-store-segment-bytes", strconv.Itoa(segmentBytes),
		// Every job stays pollable until the run drains it.
		"-job-retention", "1000000",
	}
}

// runServeWorkload runs serve-cold or serve-hot.
func runServeWorkload(ctx context.Context, w *workload, o runOpts) (outcome, error) {
	if o.servd == "" {
		return outcome{}, errors.New("serve workloads need -servd (the thermservd binary)")
	}
	dir := filepath.Join(o.outDir, fmt.Sprintf("%s-s%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return outcome{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	src, err := newSource(w.serve, o.seed)
	if err != nil {
		return outcome{}, err
	}
	r := &serveRun{
		cfg: w.serve, o: o, src: src, dir: dir,
		shapeOK: true, bodies: map[int][]byte{},
	}
	defer func() { r.srv.stop() }()
	return r.run(ctx)
}

func (r *serveRun) run(ctx context.Context) (outcome, error) {
	ms := metricSet{}
	setup, err := r.setUp(ctx)
	if err != nil {
		return outcome{}, err
	}
	ms.setDist("setup_s", setup, 0.5)
	r.cl = newClient(r.srv.base, runtime.NumCPU())
	defer r.cl.close()

	before, err := r.srv.stats(ctx, r.cl)
	if err != nil {
		return outcome{}, err
	}
	nominal := rung{rate: r.cfg.nominalRPS, dur: r.o.seconds * 3 / 4}
	var samples []sample
	var items []item
	var tr *tracer
	var untracedMean float64
	var cpu []float64
	if !r.o.trace {
		rungs := []rung{{rate: r.cfg.nominalRPS, dur: warmupS}, nominal}
		for _, rate := range r.cfg.ladder {
			rungs = append(rungs, rung{rate: rate, dur: r.o.seconds / 4 / float64(len(r.cfg.ladder))})
		}
		if items, err = r.src.schedule(rungs, -1); err != nil {
			return outcome{}, err
		}
		// The server's CPU time is read at every slice boundary of the
		// nominal rung, on the schedule's own clock.
		start := time.Now().Add(10 * time.Millisecond)
		var marks []time.Duration
		for k := 0; k <= slices(nominal.dur); k++ {
			marks = append(marks, secs(warmupS+float64(k)*sliceLen(nominal.dur)))
		}
		cpuc := make(chan error, 1)
		go func() {
			var err error
			cpu, err = sampleCPU(r.srv.pid, start, marks)
			cpuc <- err
		}()
		samples = r.cl.run(ctx, start, items, nil)
		if err := <-cpuc; err != nil {
			return outcome{}, fmt.Errorf("server CPU time: %w", err)
		}
	} else {
		// Untraced, then traced, both at the nominal rate for half the
		// window: the pair gives the tracing overhead and the residual.
		half := rung{rate: r.cfg.nominalRPS, dur: r.o.seconds / 2}
		first, err := r.src.schedule([]rung{{rate: r.cfg.nominalRPS, dur: warmupS}, half}, -1)
		if err != nil {
			return outcome{}, err
		}
		s1 := r.cl.run(ctx, time.Now(), first, nil)
		untracedMean = meanLatencyMs(first, s1, 0)
		second, err := r.src.schedule([]rung{half}, 1)
		if err != nil {
			return outcome{}, err
		}
		tr = newTracer()
		s2 := r.cl.run(ctx, time.Now(), second, tr)
		items, samples = append(first, second...), append(s1, s2...)
	}
	r.ok = make([]bool, len(items))
	for i := range samples {
		r.ok[i] = r.check(items[i], &samples[i])
	}
	if err := r.drainJobs(ctx); err != nil {
		return outcome{}, err
	}
	after, err := r.srv.stats(ctx, r.cl)
	if err != nil {
		return outcome{}, err
	}
	r.checkShape(items, samples, before, after)
	rss, err := procStatus(r.srv.pid, "VmHWM")
	if err != nil {
		return outcome{}, err
	}
	r.srv.stop()
	r.srv = nil

	out := outcome{metrics: ms, tr: tr}
	if !r.o.trace {
		r.endToEnd(ms, items, samples, cpu, nominal.dur)
		ms.set("max_rss_mb", rss)
	} else {
		zeroLayers(ms)
		r.serviceLayers(ms, items, samples, before, after)
		setTraceMetrics(ms, tr, untracedMean, meanLatencyMs(items, samples, 1))
	}
	// Oracles outside the timed window: recompute a sample of bodies
	// (the traced run takes its engine-layer numbers from it), then
	// audit and probe the data dir.
	if err := r.recompute(ctx, ms, items); err != nil {
		return outcome{}, err
	}
	if err := r.storeChecks(ms); err != nil {
		return outcome{}, err
	}
	setOK(ms, r.attempted, r.failed)
	out.attempted, out.failed, out.problems, out.shapeOK, out.rungs = r.attempted, r.failed, r.problems, r.shapeOK, r.rungs
	return out, nil
}

// setUp starts the server — on fresh data dirs (serve-cold) or on the
// dir a separate server populated first (serve-hot) — setupRuns times,
// stopping all but the last, which is the one measured. The start times
// fold into best-of-setupTries samples.
func (r *serveRun) setUp(ctx context.Context) ([]float64, error) {
	reps := setupRuns(r.o)
	r.data = filepath.Join(r.dir, "data")
	if r.cfg.hot {
		if err := r.populate(ctx); err != nil {
			return nil, err
		}
	}
	var out []float64
	for i := 0; i < reps; i++ {
		dir := r.data
		if !r.cfg.hot && i < reps-1 {
			// Cold starts each get a fresh, empty directory.
			dir = filepath.Join(r.dir, fmt.Sprintf("start%d", i))
		}
		srv, d, err := startServer(r.o.servd, dir, r.serverArgs()...)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
		if i < reps-1 {
			srv.stop()
			if !r.cfg.hot {
				_ = os.RemoveAll(dir)
			}
			continue
		}
		r.srv = srv
	}
	return bestOfTries(out), nil
}

// populate runs one server that executes every hot key once, records
// the bodies it returns as the expected bytes, and stops it.
func (r *serveRun) populate(ctx context.Context) error {
	reqs, err := r.src.populateHot()
	if err != nil {
		return err
	}
	srv, _, err := startServer(r.o.servd, r.data, r.serverArgs()...)
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(srv.base, runtime.NumCPU())
	defer cl.close()
	items := make([]item, len(reqs))
	for i, p := range reqs {
		items[i] = item{req: p, rung: -1}
	}
	for i, s := range cl.run(ctx, time.Now(), items, nil) {
		p := reqs[i]
		switch {
		case s.err != nil:
			return fmt.Errorf("populate %s: %w", p.kind.path(), s.err)
		case p.kind == kindJob && s.status == http.StatusAccepted:
			var st service.JobStatus
			if err := json.Unmarshal(s.body, &st); err != nil {
				return err
			}
			res, err := waitJob(ctx, cl, st.ID)
			if err != nil {
				return err
			}
			p.expect = res
		case p.kind != kindJob && s.status == http.StatusOK && s.key == p.key:
			p.expect = s.body
		default:
			return fmt.Errorf("populate %s: status %d, key %q (want %q): %s", p.kind.path(), s.status, s.key, p.key, bytes.TrimSpace(s.body))
		}
	}
	return nil
}

// waitJob polls a job until it finishes and returns its result document.
func waitJob(ctx context.Context, cl *client, id string) ([]byte, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, _, body, err := cl.do(ctx, http.MethodGet, "/jobs/"+id, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("job %s: status %d", id, status)
		}
		var st service.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case service.JobDone:
			return st.Result, nil
		case service.JobPending, service.JobRunning:
		default:
			return nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after 60s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// check applies the per-response oracles to one sample and reports
// whether it passed.
func (r *serveRun) check(it item, s *sample) bool {
	p := it.req
	r.attempted++
	if s.err != nil {
		r.problem("%s: %v", p.kind.path(), s.err)
		return false
	}
	if p.kind == kindJob {
		if s.status != http.StatusAccepted {
			r.problem("/jobs: status %d: %s", s.status, bytes.TrimSpace(s.body))
			return false
		}
		var st service.JobStatus
		if err := json.Unmarshal(s.body, &st); err != nil || st.Key != p.key {
			r.problem("/jobs: ack key %q, want %q (%v)", st.Key, p.key, err)
			return false
		}
		r.jobIDs = append(r.jobIDs, pendingJob{id: st.ID, req: p})
		return true
	}
	switch {
	case s.status != http.StatusOK:
		r.problem("%s: status %d: %s", p.kind.path(), s.status, bytes.TrimSpace(s.body))
	case s.key != p.key:
		r.problem("%s: X-Content-Key %q, want %q", p.kind.path(), s.key, p.key)
	case p.expect != nil && !bytes.Equal(s.body, p.expect):
		r.problem("%s %s: body differs from the set-up bytes", p.kind.path(), p.key)
	default:
		r.bodies[p.idx] = s.body
		return true
	}
	return false
}

// drainJobs waits for every accepted job and checks its result.
func (r *serveRun) drainJobs(ctx context.Context) error {
	for _, j := range r.jobIDs {
		res, err := waitJob(ctx, r.cl, j.id)
		if err != nil {
			r.problem("%v", err)
			continue
		}
		if j.req.expect != nil {
			if !bytes.Equal(bytes.TrimSpace(res), bytes.TrimSpace(j.req.expect)) {
				r.problem("job %s: result differs from the set-up bytes", j.id)
			}
		} else {
			var doc struct {
				Key string `json:"key"`
			}
			if err := json.Unmarshal(res, &doc); err != nil || doc.Key != j.req.key {
				r.problem("job %s: result key %q, want %q", j.id, doc.Key, j.req.key)
			}
		}
	}
	return ctx.Err()
}

// checkShape applies the /stats shape checks over the whole run. A hot
// server executes nothing. A cold server serves nothing from its cache
// or its store, and executes every admitted request at least once and
// each of its runs at most once — how a sweep splits into executions is
// the server's choice.
func (r *serveRun) checkShape(items []item, samples []sample, before, after service.StatsDoc) {
	execs := after.Executions - before.Executions
	if r.cfg.hot {
		if execs != 0 {
			r.shapeOK = false
			r.problem("shape: %d executions on the hot server, want 0", execs)
		}
		return
	}
	var admitted, cells int64
	for i, it := range items {
		s := samples[i]
		if s.err == nil && (s.status == http.StatusOK || s.status == http.StatusAccepted) {
			admitted++
			cells += int64(it.req.cells)
		}
	}
	if hits := after.Cache.Hits - before.Cache.Hits; hits != 0 {
		r.shapeOK = false
		r.problem("shape: %d cache hits on the cold server, want 0", hits)
	}
	if after.Store != nil && before.Store != nil {
		if serves := after.Store.Serves - before.Store.Serves; serves != 0 {
			r.shapeOK = false
			r.problem("shape: %d store serves on the cold server, want 0", serves)
		}
	}
	if execs < admitted || execs > cells {
		r.shapeOK = false
		r.problem("shape: %d executions, want %d to %d (each admitted request at least once, each of its runs at most once)", execs, admitted, cells)
	}
}

// meanLatencyMs is the mean /run latency of the samples in the rung.
func meanLatencyMs(items []item, samples []sample, rungIdx int) float64 {
	var t time.Duration
	n := 0
	for i, it := range items {
		if it.rung == rungIdx && it.req.kind == kindRun && samples[i].err == nil {
			t += samples[i].latency()
			n++
		}
	}
	return ms1(t) / float64(max(n, 1))
}

// rungStats summarizes one rung for the SLO ladder.
type rungStats struct {
	Rate     float64 `json:"rate"`
	Runs     int     `json:"runs"`
	P50      float64 `json:"p50_ms"`
	P99      float64 `json:"p99_ms"`
	Failures int     `json:"failures"`
	// LastWaitMs is how long the rung's last request waited for a
	// connection: a backlog that keeps growing shows up here.
	LastWaitMs float64 `json:"last_wait_ms"`
}

func (st rungStats) meets(limitMs float64) bool {
	return st.Failures == 0 && st.P99 <= limitMs && st.LastWaitMs <= limitMs
}

// endToEnd fills the serve workloads' end-to-end metrics. The host's
// speed drifts by tens of percent over seconds to minutes, and that
// noise only ever adds time, so the metrics are read off the best slice
// of the nominal rung: lat_ms_p50, run_ms_p50 and matrix_ms_p50 are the
// lowest slice p50 of /run latency (due time to last byte), of the
// server's own /run time (X-Timing total) and of /matrix latency, and
// sim_s_per_host_s is the best slice's. Each slice's p50 includes the
// queueing inside it. The whole rung's lat_ms_p99 and the ladder's
// slo_rps go to the run record only.
func (r *serveRun) endToEnd(ms metricSet, items []item, samples []sample, cpu []float64, nominalS float64) {
	rates := append([]float64{r.cfg.nominalRPS}, r.cfg.ladder...)
	stats := make([]rungStats, len(rates))
	lats := make([][]float64, len(rates))
	nSlices := len(cpu) - 1
	simS := make([]float64, nSlices)
	latBy, totalBy, matBy := make([][]float64, nSlices), make([][]float64, nSlices), make([][]float64, nSlices)
	for i, it := range items {
		if it.rung < 0 {
			continue
		}
		s := &samples[i]
		st := &stats[it.rung]
		if !r.ok[i] {
			st.Failures++
			continue
		}
		st.LastWaitMs = ms1(s.sent.Sub(s.due))
		if it.req.kind == kindRun {
			lats[it.rung] = append(lats[it.rung], ms1(s.latency()))
		}
		if it.rung != 0 {
			continue
		}
		k := int((it.due.Seconds() - warmupS) / sliceLen(nominalS))
		if k >= nSlices {
			continue
		}
		simS[k] += it.req.simS
		switch it.req.kind {
		case kindRun:
			latBy[k] = append(latBy[k], ms1(s.latency()))
			totalBy[k] = append(totalBy[k], float64(s.timing["total"])/1e3)
		case kindMatrix:
			matBy[k] = append(matBy[k], ms1(s.latency()))
		}
	}
	for i := range stats {
		s := sorted(lats[i])
		stats[i].Rate, stats[i].Runs = rates[i], len(s)
		stats[i].P50, stats[i].P99 = quantile(s, 0.5), quantile(s, 0.99)
	}
	r.rungs = stats

	var simRate []float64
	for k := range simS {
		if d := cpu[k+1] - cpu[k]; d > 0 {
			simRate = append(simRate, simS[k]/d)
		}
	}
	ms.setBestSlice("run_ms_p50", totalBy, 0.5)
	ms.setBestSlice("lat_ms_p50", latBy, 0.5)
	ms.setBestSlice("matrix_ms_p50", matBy, 0.5)
	ms.setBest("sim_s_per_host_s", simRate, true)
	ms.setDist("lat_ms_p99", lats[0], 0.99)
	ms.set("slo_rps", sloRPS(stats, r.cfg.limitMs))
}

// slices is how many slices of sliceS fit in a rung of durS seconds; a
// rung shorter than one slice is one slice.
func slices(durS float64) int { return max(1, int(durS/sliceS+1e-9)) }

// sliceLen is the length of those slices.
func sliceLen(durS float64) float64 { return min(sliceS, durS) }

// sampleCPU reads the server's CPU time (seconds, all threads) at each
// offset from start.
func sampleCPU(pid int, start time.Time, offsets []time.Duration) ([]float64, error) {
	out := make([]float64, len(offsets))
	for i, off := range offsets {
		time.Sleep(time.Until(start.Add(off)))
		v, err := procCPUSeconds(pid)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// sloRPS is the highest offered rate whose /run p99 meets the limit
// with no failures and no growing backlog. Between the last rung that
// meets it and the first that does not, the crossing is interpolated
// linearly on p99, so the figure moves smoothly rather than in rung
// steps. A ladder that never fails reports its top rate.
func sloRPS(stats []rungStats, limitMs float64) float64 {
	best := -1
	for i, st := range stats {
		if st.meets(limitMs) {
			best = i
		}
	}
	switch {
	case best < 0:
		return stats[0].Rate * limitMs / max(stats[0].P99, limitMs)
	case best == len(stats)-1:
		return stats[best].Rate
	}
	lo, hi := stats[best], stats[best+1]
	frac := 0.0
	if hi.Failures == 0 && hi.P99 > lo.P99 {
		frac = min(1, (limitMs-lo.P99)/(max(hi.P99, hi.LastWaitMs)-lo.P99))
	}
	return lo.Rate + frac*(hi.Rate-lo.Rate)
}

// serviceLayers fills the service-side per-layer metrics from X-Timing
// headers and /stats deltas.
func (r *serveRun) serviceLayers(ms metricSet, items []item, samples []sample, before, after service.StatsDoc) {
	stage := map[string][]float64{}
	var residual, ack, late []float64
	for i, it := range items {
		s := &samples[i]
		if it.rung < 0 || s.err != nil {
			continue
		}
		if s.idleWait {
			late = append(late, ms1(s.genLate))
		}
		switch it.req.kind {
		case kindJob:
			ack = append(ack, ms1(s.latency()))
		case kindRun:
			for _, st := range serverStages {
				stage[st.stage] = append(stage[st.stage], float64(s.timing[st.stage])/1e3)
			}
			residual = append(residual, ms1(s.end.Sub(s.sent))-float64(s.timing["total"])/1e3)
		}
	}
	ms.setDist("service.queue_ms_p99", stage["queue"], 0.99)
	ms.setDist("service.coalesce_ms_p50", stage["coalesce"], 0.5)
	ms.setDist("service.execute_ms_p50", stage["execute"], 0.5)
	ms.setDist("service.encode_ms_p50", stage["encode"], 0.5)
	ms.setDist("service.store_ms_p99", stage["store"], 0.99)
	ms.setDist("service.residual_ms_p50", residual, 0.5)
	ms.setDist("service.job_ack_ms_p50", ack, 0.5)
	ms.setDist("bench.gen_late_ms_p99", late, 0.99)

	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	var serves float64
	if after.Store != nil && before.Store != nil {
		serves = float64(after.Store.Serves - before.Store.Serves)
	}
	ms.set("service.cache_hit_ratio", ratio(hits, hits+misses))
	ms.set("service.store_hit_ratio", ratio(serves, misses))
	ms.set("service.exec_per_req", ratio(float64(after.Executions-before.Executions), float64(len(items))))
	shed := (after.Admission.Shed.Cost + after.Admission.Shed.QueueFull) - (before.Admission.Shed.Cost + before.Admission.Shed.QueueFull)
	ms.set("service.shed_total", float64(shed))
}

// recomputeSample is how many /run bodies (and /matrix bodies, serve-cold)
// are recomputed in process after the window.
const (
	recomputeRuns     = 12
	recomputeMatrices = 2
)

// recompute re-executes a seed-chosen sample of the served /run bodies
// in process — untraced, then traced — and requires byte-identical
// documents; serve-cold also recomputes sampled /matrix bodies. The
// traced run's engine-layer metrics come from these passes.
func (r *serveRun) recompute(ctx context.Context, ms metricSet, items []item) error {
	var runs, mats []*planned
	seen := map[int]bool{}
	rr := rand.New(rand.NewPCG(uint64(r.o.seed), 0x72656370))
	order := rr.Perm(len(items))
	for _, i := range order {
		p := items[i].req
		if seen[p.idx] || r.bodies[p.idx] == nil {
			continue
		}
		seen[p.idx] = true
		switch {
		case p.kind == kindRun && len(runs) < recomputeRuns:
			runs = append(runs, p)
		case p.kind == kindMatrix && !r.cfg.hot && len(mats) < recomputeMatrices:
			mats = append(mats, p)
		}
	}
	reqs := make([]service.Request, len(runs))
	for i, p := range runs {
		if err := json.Unmarshal(p.body, &reqs[i]); err != nil {
			return err
		}
	}
	cells, err := prepareCells(reqs)
	if err != nil {
		return err
	}
	want := make([][32]byte, len(cells))
	for i, p := range runs {
		want[i] = sha256.Sum256(r.bodies[p.idx])
	}
	order = make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	workers := min(runtime.NumCPU(), max(len(cells), 1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := runPass(ctx, workers, cells, order, nil, 0)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	checks := []pass{plain}
	if r.o.trace {
		traced, err := runPass(ctx, workers, cells, order, newTracer(), 0)
		if err != nil {
			return err
		}
		checks = append(checks, traced)
		b := &batchRun{workers: workers}
		ms.set("experiment.pool_busy_frac", b.poolBusy([]pass{plain}))
		ms.set("experiment.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(max(len(cells), 1)))
		if len(cells) > 0 {
			if err := layerMetrics(ms, cells, []pass{traced}); err != nil {
				return err
			}
		}
	}
	for _, p := range checks {
		for i := range cells {
			r.attempted++
			if p.digest[i] != want[i] {
				r.problem("/run %s: served body differs from the in-process recomputation", cells[i].key)
			}
		}
	}
	for _, p := range mats {
		r.attempted++
		body, err := matrixBody(ctx, p.body)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, r.bodies[p.idx]) {
			r.problem("/matrix %s: served body differs from the in-process recomputation", p.key)
		}
	}
	return nil
}

// matrixBody computes a sync /matrix document in process, the way the
// server's sweep path does.
func matrixBody(ctx context.Context, wire []byte) ([]byte, error) {
	var mr service.MatrixRequest
	if err := json.Unmarshal(wire, &mr); err != nil {
		return nil, err
	}
	canon, mc, err := service.CanonicalizeMatrix(mr)
	if err != nil {
		return nil, err
	}
	th, err := cliutil.ParseIntegrator(canon.Integrator)
	if err != nil {
		return nil, err
	}
	cells, err := experiment.MatrixWith(ctx, experiment.Options{Thermal: th}, mc)
	if err != nil {
		return nil, err
	}
	doc, err := service.NewMatrixDoc(canon, cells)
	if err != nil {
		return nil, err
	}
	return service.EncodeDoc(doc)
}

// storeChecks audits the post-run data dir with store.VerifyDir (an
// oracle on every run) and, when traced, times the store's public calls
// on a copy of it.
func (r *serveRun) storeChecks(ms metricSet) error {
	start := time.Now()
	rep, err := store.VerifyDir(r.data)
	verify := time.Since(start)
	r.attempted++
	if err != nil {
		r.problem("store.VerifyDir: %v", err)
	} else if err := rep.Err(); err != nil {
		r.problem("store.VerifyDir: %v", err)
	}
	if !r.o.trace {
		return nil
	}
	ms.set("provenance.verify_ms", ms1(verify))

	cp := filepath.Join(r.dir, "copy")
	if err := copyDir(r.data, cp); err != nil {
		return err
	}
	opts := store.Options{
		SegmentBytes: segmentBytes, Pinned: service.JournalPinned,
		Version: experiment.EngineVersion,
	}
	start = time.Now()
	st, err := store.Open(cp, opts)
	if err != nil {
		return err
	}
	defer st.Close()
	ms.set("store.open_ms", ms1(time.Since(start)))
	stats := st.Stats()
	ms.set("store.records", float64(stats.Records))
	ms.set("store.bytes_per_record", ratio(float64(stats.LiveBytes), float64(stats.Records)))

	var gets, puts []float64
	var sample []byte
	for _, p := range r.src.all {
		if p.kind != kindRun || r.bodies[p.idx] == nil && p.expect == nil {
			continue
		}
		s := time.Now()
		body, ok, err := st.Get(p.key)
		gets = append(gets, us1(time.Since(s)))
		if err != nil || !ok {
			r.problem("store.Get %s: found=%v err=%v", p.key, ok, err)
			continue
		}
		sample = body
		if len(gets) == 256 {
			break
		}
	}
	for i := 0; i < 64 && sample != nil; i++ {
		s := time.Now()
		if err := st.Put(fmt.Sprintf("thermbench/put/%d", i), sample); err != nil {
			return err
		}
		puts = append(puts, us1(time.Since(s)))
	}
	start = time.Now()
	if err := st.Seal(); err != nil {
		return err
	}
	ms.set("store.seal_ms", ms1(time.Since(start)))
	ms.setDist("store.get_us", gets, 0.5)
	ms.setDist("store.put_us", puts, 0.5)
	return nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
