package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"thermbal/internal/scenario"
	"thermbal/internal/thermal"
)

// The golden run-document digests pin the exact bytes of one Run
// document per builtin scenario × policy × integrator. Any change to
// the engine that moves a single bit of any result — a reordered
// floating-point sum, a different macro-step partition under expm —
// shows up here as a digest mismatch. Regenerate deliberately with
//
//	go test ./internal/experiment -run TestGoldenRunDigests -update-golden
//
// and say in the change description why the numbers moved.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_run_digests.json for this GOARCH")

const goldenPath = "testdata/golden_run_digests.json"

// Short windows keep the whole grid fast under -race while every
// policy still acts: thermal-balance migrates and stop-go stops cores
// within the measured window.
const goldenWarmupS, goldenMeasureS = 0.25, 0.5

// denseExpmUnderRace names the dies whose expm cells are skipped under
// -race: their one-off dense propagator build (n³ scaling-and-squaring
// on the largest networks that still take the dense path) takes 3–26 s
// under race instrumentation. The plain test run checks their digests.
var denseExpmUnderRace = map[string]bool{"manycore-32": true, "manycore-64": true}

var goldenPolicies = []string{"energy-balance", "stop-go", "thermal-balance"}

// goldenDigest runs one cell and hashes its Summary document.
func goldenDigest(t *testing.T, sc, pol string, scheme thermal.Scheme) string {
	t.Helper()
	res, _, err := Run(RunConfig{
		Scenario:   sc,
		PolicyName: pol,
		Delta:      2,
		WarmupS:    goldenWarmupS,
		MeasureS:   goldenMeasureS,
		Thermal:    thermal.Config{Scheme: scheme},
	})
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", sc, pol, scheme, err)
	}
	body, err := json.Marshal(Summarize(res))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

func TestGoldenRunDigests(t *testing.T) {
	pinned := map[string]map[string]string{}
	if raw, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(raw, &pinned); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	} else if !*updateGolden {
		t.Fatal(err)
	}
	want := pinned[runtime.GOARCH]
	if want == nil && !*updateGolden {
		t.Skipf("no golden digests pinned for GOARCH=%s", runtime.GOARCH)
	}

	got := map[string]string{}
	skipped := 0
	for _, sc := range scenario.Names() {
		for _, pol := range goldenPolicies {
			for _, scheme := range []thermal.Scheme{thermal.Euler, thermal.Expm} {
				if raceEnabled && scheme == thermal.Expm && denseExpmUnderRace[sc] {
					skipped++
					continue
				}
				got[fmt.Sprintf("%s/%s/%s", sc, pol, scheme)] = goldenDigest(t, sc, pol, scheme)
			}
		}
	}

	if *updateGolden {
		if skipped > 0 {
			t.Fatal("regenerate without -race: it skips cells")
		}
		pinned[runtime.GOARCH] = got
		raw, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests for GOARCH=%s", len(got), runtime.GOARCH)
		return
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no pinned digest", k)
		} else if got[k] != w {
			t.Errorf("%s: digest %s, pinned %s", k, got[k], w)
		}
	}
	if ran := len(got) + skipped; ran != len(want) {
		t.Errorf("pinned %d digests, grid has %d cells", len(want), ran)
	}
}
