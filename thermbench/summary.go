package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// summaryMain aggregates run records: for every (workload, mode) and
// metric, the median and quartiles across runs and the interquartile
// range as a share of the median. With -base, it also compares each
// metric's median against the base records' — but only when both sides
// were measured on the same host fingerprint; otherwise it says the two
// are not comparable instead of passing or failing.
func summaryMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	base := fs.String("base", "", "glob of baseline run records to compare against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cur, err := loadRecords(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermbench:", err)
		return 1
	}
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "thermbench: summary: no run records given")
		return 2
	}
	var old []record
	if *base != "" {
		paths, err := filepath.Glob(*base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "thermbench:", err)
			return 2
		}
		if old, err = loadRecords(paths); err != nil {
			fmt.Fprintln(os.Stderr, "thermbench:", err)
			return 1
		}
	}
	writeSummary(w, cur, old)
	return 0
}

func loadRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" {
			continue // not a run record (a spans file, say)
		}
		out = append(out, r)
	}
	return out, nil
}

// spread is a metric's distribution across runs.
type spread struct {
	n                int
	q1, median, q3   float64
	iqrShare         float64
	fingerprintsSame bool
	host             hostID
}

// group keys records by workload and mode.
func group(recs []record) map[string][]record {
	g := map[string][]record{}
	for _, r := range recs {
		k := r.Workload
		if r.Trace {
			k += " (traced)"
		}
		g[k] = append(g[k], r)
	}
	return g
}

func spreadOf(recs []record, metric string) spread {
	var vals []float64
	sp := spread{fingerprintsSame: true}
	for i, r := range recs {
		if i == 0 {
			sp.host = r.Fingerprint.Host
		} else if r.Fingerprint.Host != sp.host {
			sp.fingerprintsSame = false
		}
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.V)
		}
	}
	s := sorted(vals)
	sp.n = len(s)
	if sp.n == 0 {
		return sp
	}
	sp.q1, sp.median, sp.q3 = quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
	sp.iqrShare = ratio(sp.q3-sp.q1, sp.median)
	return sp
}

func writeSummary(w io.Writer, cur, old []record) {
	cg, og := group(cur), group(old)
	for _, k := range sortedKeys(cg) {
		recs := cg[k]
		trace := recs[0].Trace
		failed := 0
		for _, r := range recs {
			if !r.Correct {
				failed++
			}
		}
		fmt.Fprintf(w, "%s: %d runs, %d incorrect\n", k, len(recs), failed)
		base, haveBase := og[k]
		for _, d := range declared(trace) {
			s := spreadOf(recs, d.name)
			if s.n == 0 {
				continue
			}
			line := fmt.Sprintf("  %-28s median %12.6g %-6s q1 %12.6g q3 %12.6g iqr/median %6.3f", d.name, s.median, d.unit, s.q1, s.q3, s.iqrShare)
			if !s.fingerprintsSame {
				line += "  [mixed hosts]"
			}
			if haveBase {
				b := spreadOf(base, d.name)
				switch {
				case b.n == 0:
				case !b.fingerprintsSame || !s.fingerprintsSame || b.host != s.host:
					line += "  vs base: not comparable (host fingerprints differ)"
				default:
					change := ratio(s.median-b.median, b.median)
					line += fmt.Sprintf("  vs base %+.1f%%", 100*change)
				}
			}
			fmt.Fprintln(w, line)
		}
	}
}
