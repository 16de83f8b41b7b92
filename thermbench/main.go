// Command thermbench is the thermbal benchmark. It runs one named
// workload for a fixed time, checks every output it produces against
// an oracle, and prints the metrics as one JSON line: end-to-end
// metrics by default, per-layer metrics with -trace 1.
//
// Usage (from the repository root; bench.sh builds and runs it):
//
//	thermbench -workload paper-sweep -seed 1 -seconds 10 -trace 0
//	thermbench -workload serve-cold -seed 1 -seconds 10 -trace 1 -servd bin/thermservd
//	thermbench list                    # the workload names
//	thermbench digests                 # print every batch workload digest
//	thermbench summary results/*.json  # median and quartiles across runs
//	thermbench summary -base 'old/*.json' results/*.json
//
// Workloads: paper-sweep and manycore run the engine in process on an
// experiment.Runner; serve-cold and serve-hot drive a thermservd
// process open loop. README.md describes each workload, every metric
// and the layer each per-layer metric belongs to.
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// A run whose set-up or measurement cannot complete exits 1 without a
// result line; a run that completes reports its oracle failures in
// "failed" (and correct=false).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runOpts are one run's parameters.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	servd   string // thermservd binary (serve workloads)
	outDir  string // run records, spans and scratch data
	root    string // repository root
}

// record is the detailed account of one run written next to the result
// line: host fingerprint, every metric with its sample count and
// quartiles, and the oracle problems found.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Date        string      `json:"date"`
	Fingerprint fingerprint `json:"fingerprint"`
	Correct     bool        `json:"correct"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	Problems    []string    `json:"problems,omitempty"`
	Metrics     metricSet   `json:"metrics"`
	Spans       string      `json:"spans,omitempty"`
	// Rungs are a serve run's offered-rate rungs: nominal, then ladder.
	Rungs []rungStats `json:"rungs,omitempty"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	metrics           metricSet
	attempted, failed int
	problems          []string
	shapeOK           bool
	tr                *tracer
	rungs             []rungStats
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "setup-probe":
			os.Exit(setupProbeMain(os.Args[2:]))
		case "list":
			for _, w := range workloads {
				fmt.Println(w.name)
			}
			return
		case "digests":
			os.Exit(digestsMain())
		case "summary":
			os.Exit(summaryMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thermbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (paper-sweep, manycore, serve-cold, serve-hot)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	servd := fs.String("servd", "", "thermservd binary (serve workloads)")
	outDir := fs.String("out", ".bench_build/results", "directory for run records, spans and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 1
	}
	o := runOpts{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		servd: *servd, outDir: *outDir, root: root,
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 1
	}
	ctx := context.Background()
	var out outcome
	if w.batch {
		out, err = runBatchWorkload(ctx, w, o)
	} else {
		out, err = runServeWorkload(ctx, w, o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "thermbench: %s: %v\n", w.name, err)
		return 1
	}
	correct := out.failed == 0 && out.shapeOK
	rec := record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Date: time.Now().UTC().Format(time.RFC3339), Fingerprint: hostFingerprint(root),
		Correct: correct, Attempted: out.attempted, Failed: out.failed,
		Problems: out.problems, Metrics: out.metrics, Rungs: out.rungs,
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-s%d-t%d", w.name, o.seed, *trace))
	if out.tr != nil {
		rec.Spans = base + ".spans.jsonl"
		if err := out.tr.writeJSONL(rec.Spans); err != nil {
			fmt.Fprintln(stderr, "thermbench:", err)
			return 1
		}
	}
	if err := writeJSONFile(base+".json", rec); err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 1
	}
	printRecord(stdout, rec)
	if err := writeResultLine(stdout, o.trace, correct, out.attempted, out.failed, out.metrics); err != nil {
		fmt.Fprintln(stderr, "thermbench:", err)
		return 1
	}
	return 0
}

// printRecord writes the human-readable part of a run: fingerprint,
// problems, and every declared metric with its spread.
func printRecord(w io.Writer, r record) {
	fp := r.Fingerprint
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s/%s; commit %s, source %s\n",
		fp.Host.CPU, fp.Host.NProc, fp.Host.GOMAXPROCS, fp.Host.GoVersion, fp.Host.GOARCH, fp.Commit, fp.Source)
	for _, g := range r.Rungs {
		fmt.Fprintf(w, "rung %6g/s: %d runs, p50 %.3g ms, p99 %.3g ms, %d failed, last wait %.3g ms\n",
			g.Rate, g.Runs, g.P50, g.P99, g.Failures, g.LastWaitMs)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	shown := map[string]bool{}
	for _, d := range declared(r.Trace) {
		printMetric(w, d.name, d.unit, r.Metrics[d.name])
		shown[d.name] = true
	}
	for _, name := range sortedKeys(r.Metrics) {
		if !shown[name] {
			printMetric(w, name+" (record)", unitOf(name), r.Metrics[name])
		}
	}
}

func printMetric(w io.Writer, name, unit string, v value) {
	if v.N > 0 {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (n=%d, q1 %.6g, q3 %.6g)\n", name, v.V, unit, v.N, v.Q1, v.Q3)
	} else {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, v.V, unit)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// zeroLayers presets every per-layer metric to 0, the reading of a
// layer the workload never touches.
func zeroLayers(ms metricSet) {
	for _, d := range perLayer {
		ms.set(d.name, 0)
	}
}

// setOK reports ok_frac, the complement of failed_frac: the share of
// attempted operations that succeeded and passed their oracle.
func setOK(ms metricSet, attempted, failed int) {
	ms.set("ok_frac", 1-ratio(float64(failed), float64(attempted)))
}

// runBatchWorkload runs paper-sweep or manycore.
func runBatchWorkload(ctx context.Context, w *workload, o runOpts) (outcome, error) {
	b, err := newBatchRun(w, o)
	if err != nil {
		return outcome{}, err
	}
	ms := metricSet{}
	if !o.trace {
		setup, err := batchSetup(w, o)
		if err != nil {
			return outcome{}, err
		}
		ms.setDist("setup_s", setup, 0.5)
	}
	if err := b.warmUp(ctx); err != nil {
		return outcome{}, err
	}
	start := time.Now()
	out := outcome{metrics: ms, shapeOK: true}
	if !o.trace {
		passes, err := b.measured(ctx, start.Add(secs(o.seconds)))
		if err != nil {
			return outcome{}, err
		}
		b.batchMetrics(ms, passes)
		rss, err := procStatus(os.Getpid(), "VmHWM")
		if err != nil {
			return outcome{}, err
		}
		ms.set("max_rss_mb", rss)
	} else {
		// Half the time untraced (the reference for residual and
		// overhead, the pool and allocation numbers), half traced.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		plain, err := b.measured(ctx, start.Add(secs(o.seconds/2)))
		if err != nil {
			return outcome{}, err
		}
		runtime.ReadMemStats(&m1)
		zeroLayers(ms)
		nCells := len(plain) * len(b.cells)
		ms.set("experiment.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(nCells))
		ms.set("experiment.pool_busy_frac", b.poolBusy(plain))
		tr := newTracer()
		traced, err := b.traced(ctx, tr, time.Now().Add(secs(o.seconds/2)))
		if err != nil {
			return outcome{}, err
		}
		if err := layerMetrics(ms, b.cells, traced); err != nil {
			return outcome{}, err
		}
		setTraceMetrics(ms, tr, meanCellMs(plain), meanCellMs(traced))
		out.tr = tr
	}
	setOK(ms, b.attempted, b.failed)
	out.attempted, out.failed, out.problems = b.attempted, b.failed, b.problems
	return out, nil
}

// setTraceMetrics reports per-layer self time per operation, the
// residual (untraced per-operation time minus the layers' self time)
// and the tracing overhead (traced minus untraced per-operation time).
func setTraceMetrics(ms metricSet, tr *tracer, untracedMs, tracedMs float64) {
	self := selfTimes(tr.snapshot())
	var total float64
	for _, layer := range []string{"experiment", "scenario", "sim", "service", "store"} {
		ms.set(layer+".self_ms", self[layer])
	}
	for _, v := range self {
		total += v
	}
	ms.set("trace.residual_ms", untracedMs-total)
	ms.set("trace.overhead_ms", tracedMs-untracedMs)
}

func meanCellMs(passes []pass) float64 {
	var t time.Duration
	n := 0
	for _, p := range passes {
		for _, d := range p.cellDur {
			t += d
			n++
		}
	}
	return ms1(t) / float64(max(n, 1))
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// batchSetup measures a batch workload's set-up several times, each in a
// fresh process: from exec to exit, the process initializes the
// program's packages (the scenario and policy registries), prepares
// every cell, builds its scenario, platform and engine, and runs it for
// its first setupSimS simulated seconds — far enough to build every
// lazily made, process-wide structure a run needs early, the expm
// propagators among them.
func batchSetup(w *workload, o runOpts) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRuns(o); i++ {
		cmd := exec.Command(self, "setup-probe", w.name)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return bestOfTries(out), nil
}

// setup_s is the median of setupSamples samples, each the fastest of
// setupTries set-ups: a set-up happens once per process, so it cannot be
// repeated in place, and the host's slow phases only ever add to it.
const (
	setupSamples = 3
	setupTries   = 3
)

// setupRuns is how many set-ups a run performs.
func setupRuns(o runOpts) int {
	if o.trace {
		return 1 // setup_s is not reported
	}
	return setupSamples * setupTries
}

// bestOfTries folds consecutive groups of setupTries timings into their
// minima.
func bestOfTries(times []float64) []float64 {
	var out []float64
	for len(times) > 0 {
		n := min(setupTries, len(times))
		out = append(out, sorted(times[:n])[0])
		times = times[n:]
	}
	return out
}

// setupSimS is how far the set-up probe runs each cell.
const setupSimS = 0.1

// setupProbeMain is the child side of batchSetup.
func setupProbeMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: thermbench setup-probe <workload>")
		return 2
	}
	w, err := lookupWorkload(args[0])
	if err != nil || !w.batch {
		fmt.Fprintln(os.Stderr, "thermbench: setup-probe needs a batch workload")
		return 2
	}
	cells, err := prepareCells(w.cells())
	if err == nil {
		for _, c := range cells {
			if err = startCell(c); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermbench:", err)
		return 1
	}
	return 0
}

// digestsMain prints, for every batch workload, the workload digest the
// current code produces, in the digests.json layout.
func digestsMain() int {
	pins := map[string]string{}
	for _, w := range workloads {
		if !w.batch {
			continue
		}
		cells, err := prepareCells(w.cells())
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermbench:", err)
			return 1
		}
		order := make([]int, len(cells))
		for i := range order {
			order[i] = i
		}
		p, err := runPass(context.Background(), runtime.NumCPU(), cells, order, nil, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermbench:", err)
			return 1
		}
		pins[w.name] = workloadDigest(cells, p.digest)
	}
	b, _ := json.MarshalIndent(map[string]map[string]string{runtime.GOARCH: pins}, "", "  ")
	fmt.Println(string(b))
	return 0
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
