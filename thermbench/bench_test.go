package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"thermbal/internal/service"
)

// tinyBatch is a two-cell batch workload small enough for self-tests.
var tinyBatch = &workload{name: "tiny-batch", batch: true, cells: tinyCells}

// TestMain registers the test workloads and lets the test binary stand
// in for thermbench when a batch workload measures its set-up in child
// processes.
func TestMain(m *testing.M) {
	workloads = append(workloads, tinyBatch)
	if len(os.Args) > 1 && os.Args[1] == "setup-probe" {
		os.Exit(setupProbeMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestMetricTablesMatchBenchmarkJSON keeps the Go metric tables and the
// declared benchmark in step: same names, units and directions.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the tables %d+%d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := decl.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, table %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		got := decl.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table %+v", i, got, d)
		}
	}
	real := workloads[:len(workloads)-1] // without tinyBatch
	if len(decl.Workloads) != len(real) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the table %d", len(decl.Workloads), len(real))
	}
	for i, w := range real {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the table", i, decl.Workloads[i].Name, w.name)
		}
	}
}

// runBench runs one benchmark invocation in process and decodes its
// result line.
func runBench(t *testing.T, args ...string) (resultLine, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "-out", t.TempDir())
	if code := benchMain(args, &out, &errb); code != 0 {
		t.Fatalf("thermbench %v: exit %d\n%s%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// checkDeclared requires exactly the declared metrics, with their units.
func checkDeclared(t *testing.T, res resultLine, trace bool) {
	t.Helper()
	want := declared(trace)
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
	}
	for _, d := range want {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if v.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, v.Unit, d.unit)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
}

// withWorkload registers an extra workload for one test.
func withWorkload(t *testing.T, w *workload) {
	t.Helper()
	saved := workloads
	workloads = append(append([]*workload(nil), workloads...), w)
	t.Cleanup(func() { workloads = saved })
}

// withDigest pins a batch workload digest for one test.
func withDigest(t *testing.T, name, digest string) {
	t.Helper()
	saved := digestsJSON
	var pins map[string]map[string]string
	if err := json.Unmarshal(saved, &pins); err != nil {
		t.Fatal(err)
	}
	if pins[runtime.GOARCH] == nil {
		pins[runtime.GOARCH] = map[string]string{}
	}
	pins[runtime.GOARCH][name] = digest
	b, err := json.Marshal(pins)
	if err != nil {
		t.Fatal(err)
	}
	digestsJSON = b
	t.Cleanup(func() { digestsJSON = saved })
}

func tinyCells() []service.Request {
	return []service.Request{
		{Scenario: "sdr-radio", Policy: "thermal-balance", Delta: 3, WarmupS: 0.5, MeasureS: 0.5},
		{Scenario: "sdr-radio", Policy: "stop-go", Delta: 3, WarmupS: 0.5, MeasureS: 0.5, Package: "hp"},
	}
}

func tinyDigest(t *testing.T) string {
	t.Helper()
	cells, err := prepareCells(tinyCells())
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPass(t.Context(), 1, cells, []int{0, 1}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return workloadDigest(cells, p.digest)
}

// TestBatchDeclaredMetrics runs a tiny batch workload in both modes:
// every declared metric is emitted with its unit, and the traced
// pipeline reproduces the untraced documents byte for byte.
func TestBatchDeclaredMetrics(t *testing.T) {
	withDigest(t, "tiny-batch", tinyDigest(t))
	for _, trace := range []string{"0", "1"} {
		res, out := runBench(t, "-workload", "tiny-batch", "-seed", "3", "-seconds", "0.05", "-trace", trace)
		checkDeclared(t, res, trace == "1")
		if !res.Correct || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v failed=%d\n%s", trace, res.Correct, res.Failed, out)
		}
	}
}

// TestWrongDigestFails: a pinned digest that the documents do not match
// is an oracle failure, and failed_frac (1 - ok_frac) turns positive.
func TestWrongDigestFails(t *testing.T) {
	withDigest(t, "tiny-batch", strings.Repeat("0", 64))
	res, _ := runBench(t, "-workload", "tiny-batch", "-seed", "1", "-seconds", "0.05", "-trace", "0")
	if res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("wrong digest accepted: correct=%v failed=%d ok_frac=%v", res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// TestPinnedDigestsMatch runs each real batch workload once at its
// declared size and requires the pinned digest.
func TestPinnedDigestsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every batch cell")
	}
	for _, w := range workloads {
		if !w.batch || w == tinyBatch {
			continue
		}
		b, err := newBatchRun(w, runOpts{seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.warmUp(t.Context()); err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 {
			t.Errorf("%s: %v", w.name, b.problems)
		}
	}
}

// buildServd builds thermservd for the serve tests.
func buildServd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "thermservd")
	cmd := exec.Command("go", "build", "-o", bin, "thermbal/cmd/thermservd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build thermservd: %v\n%s", err, out)
	}
	return bin
}

// TestServeDeclaredMetrics runs serve-cold and a shrunken serve-hot for a
// second in both modes against a real thermservd.
func TestServeDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts thermservd")
	}
	servd := buildServd(t)
	hot := serveHot
	hot.runKeys, hot.matrixKeys, hot.jobKeys = 24, 4, 2
	withWorkload(t, &workload{name: "tiny-hot", serve: &hot})
	for _, name := range []string{"serve-cold", "tiny-hot"} {
		for _, trace := range []string{"0", "1"} {
			res, out := runBench(t, "-workload", name, "-seed", "2", "-seconds", "1", "-trace", trace, "-servd", servd)
			checkDeclared(t, res, trace == "1")
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace %s: correct=%v failed=%d\n%s", name, trace, res.Correct, res.Failed, out)
			}
		}
	}
}

// TestFlippedBodyByteFails: one flipped byte in a served body fails the
// byte-for-byte oracle and makes failed_frac positive.
func TestFlippedBodyByteFails(t *testing.T) {
	want := []byte(`{"schema_version":1,"kind":"run"}` + "\n")
	p := &planned{kind: kindRun, key: "k", expect: want, simS: 5}
	r := &serveRun{bodies: map[int][]byte{}, shapeOK: true}
	good := sample{status: 200, key: "k", body: append([]byte(nil), want...)}
	r.check(item{req: p}, &good)
	bad := sample{status: 200, key: "k", body: append([]byte(nil), want...)}
	bad.body[3] ^= 0x01
	r.check(item{req: p}, &bad)
	if r.attempted != 2 || r.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 1", r.attempted, r.failed)
	}
	ms := metricSet{}
	setOK(ms, r.attempted, r.failed)
	if got := ms["ok_frac"].V; got != 0.5 {
		t.Fatalf("ok_frac = %v, want 0.5", got)
	}
}

// TestWrongKeyFails: a response stamped with another content address
// fails the X-Content-Key oracle.
func TestWrongKeyFails(t *testing.T) {
	r := &serveRun{bodies: map[int][]byte{}, shapeOK: true}
	r.check(item{req: &planned{kind: kindRun, key: "want"}}, &sample{status: 200, key: "other", body: []byte("{}")})
	if r.failed != 1 {
		t.Fatalf("failed = %d, want 1", r.failed)
	}
}

func TestSLORPS(t *testing.T) {
	const limit = 100
	cases := []struct {
		name  string
		rungs []rungStats
		want  float64
	}{
		{"all meet", []rungStats{{Rate: 10, P99: 5}, {Rate: 20, P99: 50}}, 20},
		{"interpolated", []rungStats{{Rate: 10, P99: 20}, {Rate: 20, P99: 60}, {Rate: 30, P99: 140}}, 25},
		{"isolated miss below", []rungStats{{Rate: 10, P99: 120}, {Rate: 20, P99: 60}, {Rate: 30, P99: 300}}, 21.6666666667},
		{"failures", []rungStats{{Rate: 10, P99: 20}, {Rate: 20, P99: 30, Failures: 1}}, 10},
		{"backlog", []rungStats{{Rate: 10, P99: 20}, {Rate: 20, P99: 30, LastWaitMs: 500}}, 11.6666666667},
		{"none meet", []rungStats{{Rate: 10, P99: 200}, {Rate: 20, P99: 400}}, 5},
	}
	for _, c := range cases {
		if got := sloRPS(c.rungs, limit); fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", c.want) {
			t.Errorf("%s: sloRPS = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(s, c.q); fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "experiment", Start: 0, End: 10e6},
		{ID: 1, Parent: 0, Layer: "sim", Start: 1e6, End: 7e6},
		{ID: 2, Parent: 1, Layer: "store", Start: 2e6, End: 4e6},
		{ID: 3, Parent: 0, Layer: "service", Start: 7e6, End: 9e6},
	}
	self := selfTimes(spans)
	if self["sim"] != 4 || self["store"] != 2 || self["service"] != 2 || len(self) != 3 {
		t.Fatalf("self %v; want sim 4, store 2, service 2", self)
	}
}

// TestSummaryNotComparable: results from different hosts are reported
// as not comparable rather than compared.
func TestSummaryNotComparable(t *testing.T) {
	mk := func(cpu string, v float64) record {
		return record{Workload: "w", Correct: true, Fingerprint: fingerprint{Host: hostID{CPU: cpu, NProc: 2}},
			Metrics: metricSet{"run_ms_p50": {V: v}}}
	}
	var out bytes.Buffer
	writeSummary(&out, []record{mk("a", 10), mk("a", 12)}, []record{mk("b", 5)})
	if !strings.Contains(out.String(), "not comparable") {
		t.Fatalf("different hosts compared:\n%s", out.String())
	}
	out.Reset()
	writeSummary(&out, []record{mk("a", 10), mk("a", 12)}, []record{mk("a", 10)})
	if !strings.Contains(out.String(), "vs base +10.0%") {
		t.Fatalf("same-host comparison missing:\n%s", out.String())
	}
}

// TestColdShapeSweepSplit: a cold server may run a two-cell sweep as one
// execution or as two; fewer executions than admitted requests, more
// than their runs, or any cache hit or store serve fails the check.
func TestColdShapeSweepSplit(t *testing.T) {
	items := []item{
		{req: &planned{kind: kindRun, cells: 1}},
		{req: &planned{kind: kindMatrix, cells: 2}},
	}
	samples := []sample{{status: 200}, {status: 200}}
	cases := []struct {
		execs, serves int64
		hits          uint64
		ok            bool
	}{
		{execs: 2, ok: true},
		{execs: 3, ok: true},
		{execs: 1},
		{execs: 4},
		{execs: 2, hits: 1},
		{execs: 2, serves: 1},
	}
	for _, c := range cases {
		r := &serveRun{cfg: &serveCold, shapeOK: true}
		after := service.StatsDoc{Executions: c.execs, Store: &service.StoreStats{Serves: c.serves}}
		after.Cache.Hits = c.hits
		r.checkShape(items, samples, service.StatsDoc{Store: &service.StoreStats{}}, after)
		if r.shapeOK != c.ok || (r.failed == 0) != c.ok {
			t.Errorf("%+v: shapeOK=%v failed=%d %v", c, r.shapeOK, r.failed, r.problems)
		}
	}
}
