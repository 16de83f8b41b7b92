package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"

	"thermbal/internal/service"
)

// workload is one named benchmark workload.
type workload struct {
	name  string
	batch bool
	// cells lists a batch workload's runs in canonical order.
	cells func() []service.Request
	// serve configures a serve workload.
	serve *serveConfig
}

var workloads = []*workload{
	{name: "paper-sweep", batch: true, cells: paperSweepCells},
	{name: "manycore", batch: true, cells: manycoreCells},
	{name: "serve-cold", serve: &serveCold},
	{name: "serve-hot", serve: &serveHot},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// paperSweepCells is the paper's evaluation grid: sdr-radio under the
// three policies, Δ ∈ {2,3,4,5}, on both thermal packages, with the
// paper's 12.5 s + 30 s windows and explicit Euler stepping.
func paperSweepCells() []service.Request {
	var out []service.Request
	for _, pkg := range []string{"mobile-embedded", "high-performance"} {
		for _, pol := range []string{"energy-balance", "stop-go", "thermal-balance"} {
			for _, d := range []float64{2, 3, 4, 5} {
				out = append(out, service.Request{
					Scenario: "sdr-radio", Policy: pol, Delta: d, Package: pkg,
					WarmupS: 12.5, MeasureS: 30, Integrator: "euler",
				})
			}
		}
	}
	return out
}

// manycoreCells are the two scaling cells: the 256-core die on Euler
// and the 64-core die on the exact (expm) integrator, thermal-balance
// at Δ2 with short (0.5 s + 1 s) windows. Short cells give each run
// many executions to take the best of; see README.md.
func manycoreCells() []service.Request {
	return []service.Request{
		{Scenario: "manycore-256", Policy: "thermal-balance", Delta: 2, WarmupS: 0.5, MeasureS: 1, Integrator: "euler"},
		{Scenario: "manycore-64", Policy: "thermal-balance", Delta: 2, WarmupS: 0.5, MeasureS: 1, Integrator: "expm"},
	}
}

// digestsJSON pins, per GOARCH, the SHA-256 over every run document a
// batch workload produces (see workloadDigest). Documents are
// deterministic for a given architecture; regenerate with
// `thermbench digests` only when the run document is meant to change.
//
//go:embed digests.json
var digestsJSON []byte

func pinnedDigest(workload string) (string, bool) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return "", false
	}
	d, ok := pins[runtime.GOARCH][workload]
	return d, ok
}
