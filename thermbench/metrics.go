package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one reported metric. The table below is the single
// Go-side source of the metric names and units; BENCHMARK.json declares
// the same set (a self-test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	layer  bool   // per-layer (traced run) rather than end-to-end
}

// endToEnd are the metrics every untraced run reports, on every
// workload. Batch and serve workloads measure each one with the
// analogue that fits them; README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", false},
	{"sim_s_per_host_s", "s/s", "higher", false},
	{"run_ms_p50", "ms", "lower", false},
	{"lat_ms_p50", "ms", "lower", false},
	{"matrix_ms_p50", "ms", "lower", false},
	{"ok_frac", "frac", "higher", false},
	{"max_rss_mb", "MiB", "lower", false},
}

// perLayer are the metrics every traced run reports, on every workload.
// A layer a workload never touches reads 0.
var perLayer = []metricDef{
	{"scenario.compile_ms", "ms", "lower", true},
	{"sim.new_ms", "ms", "lower", true},
	{"sim.summarize_us", "us", "lower", true},
	{"sim.warmup_ns_per_tick", "ns", "lower", true},
	{"sim.measure_ns_per_tick", "ns", "lower", true},
	{"sim.ticks", "count", "lower", true},
	{"thermal.step_us", "us", "lower", true},
	{"thermal.step_share", "frac", "lower", true},
	{"thermal.expm_hit_ratio", "frac", "higher", true},
	{"experiment.pool_busy_frac", "frac", "higher", true},
	{"experiment.alloc_kb_per_op", "KiB", "lower", true},
	{"service.canon_us", "us", "lower", true},
	{"service.encode_us", "us", "lower", true},
	{"service.queue_ms_p99", "ms", "lower", true},
	{"service.coalesce_ms_p50", "ms", "lower", true},
	{"service.execute_ms_p50", "ms", "lower", true},
	{"service.encode_ms_p50", "ms", "lower", true},
	{"service.store_ms_p99", "ms", "lower", true},
	{"service.residual_ms_p50", "ms", "lower", true},
	{"service.job_ack_ms_p50", "ms", "lower", true},
	{"service.cache_hit_ratio", "frac", "higher", true},
	{"service.store_hit_ratio", "frac", "higher", true},
	{"service.exec_per_req", "count", "lower", true},
	{"service.shed_total", "count", "lower", true},
	{"store.open_ms", "ms", "lower", true},
	{"store.get_us", "us", "lower", true},
	{"store.put_us", "us", "lower", true},
	{"store.seal_ms", "ms", "lower", true},
	{"store.records", "count", "lower", true},
	{"store.bytes_per_record", "B", "lower", true},
	{"provenance.verify_ms", "ms", "lower", true},
	{"experiment.self_ms", "ms", "lower", true},
	{"scenario.self_ms", "ms", "lower", true},
	{"sim.self_ms", "ms", "lower", true},
	{"service.self_ms", "ms", "lower", true},
	{"store.self_ms", "ms", "lower", true},
	{"trace.residual_ms", "ms", "lower", true},
	{"trace.overhead_ms", "ms", "lower", true},
	{"bench.gen_late_ms_p99", "ms", "lower", true},
}

// recordOnly are measured on untraced runs and kept in the run record,
// but not gated on: under other tenants' load they swing by more than
// any useful bound (see README.md).
var recordOnly = []metricDef{
	{"lat_ms_p99", "ms", "lower", false},
	{"slo_rps", "1/s", "higher", false},
}

// unitOf returns a metric's unit from the tables.
func unitOf(name string) string {
	for _, t := range [][]metricDef{endToEnd, perLayer, recordOnly} {
		for _, d := range t {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// declared returns the metric set a run in the given mode must emit.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// value is one measured metric: the reported number plus, where it is
// an order statistic of many samples, the sample count and quartiles
// (kept in the run record, not in the one-line result).
type value struct {
	V  float64 `json:"value"`
	N  int     `json:"n,omitempty"`
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

// metricSet accumulates a run's metrics by name.
type metricSet map[string]value

func (m metricSet) set(name string, v float64) { m[name] = value{V: v} }

// setDist reports q of samples, recording their count and quartiles.
func (m metricSet) setDist(name string, samples []float64, q float64) {
	if len(samples) == 0 {
		m[name] = value{}
		return
	}
	s := sorted(samples)
	m[name] = value{V: quantile(s, q), N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// setBest reports the best of samples — the minimum, or the maximum for
// a higher-is-better metric — recording their count and quartiles.
func (m metricSet) setBest(name string, samples []float64, higher bool) {
	q := 0.0
	if higher {
		q = 1
	}
	m.setDist(name, samples, q)
}

// setBestSlice reports the lowest q-quantile among slices of samples,
// recording the number of non-empty slices and the quartiles of their
// q-quantiles.
func (m metricSet) setBestSlice(name string, bySlice [][]float64, q float64) {
	var per []float64
	for _, s := range bySlice {
		if len(s) > 0 {
			per = append(per, quantile(sorted(s), q))
		}
	}
	m.setBest(name, per, false)
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of an ascending
// slice (the "type 7" estimator); NaN when empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile of xs in any order.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// resultLine is the one-line JSON result the benchmark contract asks
// for: exactly these four keys, the metrics being the declared set for
// the run's mode.
type resultLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]resultLineValue `json:"metrics"`
}

type resultLineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResultLine emits the declared metrics for the mode. A declared
// metric the run did not produce, or a non-finite value, is an error:
// the line is the contract, so it is never printed incomplete.
func writeResultLine(w io.Writer, trace, correct bool, attempted, failed int, ms metricSet) error {
	line := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultLineValue{}}
	for _, d := range declared(trace) {
		v, ok := ms[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", d.name, v.V)
		}
		line.Metrics[d.name] = resultLineValue{Value: v.V, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
