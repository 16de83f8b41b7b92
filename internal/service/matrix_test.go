package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"thermbal/internal/cliutil"
	"thermbal/internal/experiment"
)

// monolithicMatrixBody is the reference encoding of a sweep: the whole
// cross product run in process by experiment.MatrixWith and encoded by
// NewMatrixDoc, with no server, cache or per-cell splicing involved.
func monolithicMatrixBody(t *testing.T, req MatrixRequest) []byte {
	t.Helper()
	canon, mc, err := CanonicalizeMatrix(req)
	if err != nil {
		t.Fatal(err)
	}
	th, err := cliutil.ParseIntegrator(canon.Integrator)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := experiment.MatrixWith(context.Background(), experiment.Options{Thermal: th}, mc)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := NewMatrixDoc(canon, cells)
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMatrixPathsByteIdentical is the sweep oracle on the real engine:
// for every integrator × package combination, the sync /matrix body,
// the matrix-job result, the /run cell bodies spliced by
// assembleMatrixDoc and the monolithic in-process encoding are the same
// bytes. Each served form runs on its own server, so none of them is a
// cache hit of another.
func TestMatrixPathsByteIdentical(t *testing.T) {
	_, syncTS := newTestServer(t, Config{})
	_, jobTS := newTestServer(t, Config{})
	_, runTS := newTestServer(t, Config{})
	for _, integrator := range []string{"euler", "expm"} {
		for _, pkg := range []string{"mobile-embedded", "high-performance"} {
			t.Run(integrator+"/"+pkg, func(t *testing.T) {
				req := MatrixRequest{
					Scenarios:  []string{"sdr-radio"},
					Policies:   []string{"eb", "tb"},
					Delta:      3,
					Package:    pkg,
					Integrator: integrator,
					WarmupS:    0.3,
					MeasureS:   0.5,
				}
				wire, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				want := monolithicMatrixBody(t, req)

				resp, syncBody := do(t, http.MethodPost, syncTS.URL+"/matrix", string(wire))
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
					t.Fatalf("sync /matrix: %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), syncBody)
				}

				resp, b := do(t, http.MethodPost, jobTS.URL+"/jobs", `{"matrix":`+string(wire)+`}`)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit job: %d %s", resp.StatusCode, b)
				}
				var submitted JobStatus
				if err := json.Unmarshal(b, &submitted); err != nil {
					t.Fatal(err)
				}
				jobBody := []byte(waitState(t, jobTS, submitted.ID, JobDone).Result)

				canon, _, err := CanonicalizeMatrix(req)
				if err != nil {
					t.Fatal(err)
				}
				cells, err := matrixCells(canon)
				if err != nil {
					t.Fatal(err)
				}
				bodies := make([][]byte, len(cells))
				for i, c := range cells {
					cellWire, err := json.Marshal(c.req)
					if err != nil {
						t.Fatal(err)
					}
					resp, bodies[i] = do(t, http.MethodPost, runTS.URL+"/run", string(cellWire))
					if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
						t.Fatalf("/run cell %d: %d, X-Cache %q", i, resp.StatusCode, resp.Header.Get("X-Cache"))
					}
				}
				doc, err := assembleMatrixDoc(canon, cells, bodies)
				if err != nil {
					t.Fatal(err)
				}
				spliced, err := EncodeDoc(doc)
				if err != nil {
					t.Fatal(err)
				}

				for name, got := range map[string][]byte{
					"sync /matrix":        syncBody,
					"matrix job":          jobBody,
					"spliced /run bodies": spliced,
				} {
					if !bytes.Equal(bytes.TrimRight(got, "\n"), bytes.TrimRight(want, "\n")) {
						t.Errorf("%s differs from the monolithic sweep:\n%s\nvs\n%s", name, got, want)
					}
				}
			})
		}
	}
}

// TestSyncSweepSharesCells: a sync /matrix persists its cells like any
// /run, so a later /run of a cell is a hit with the bytes a fresh run
// produces, and a sweep whose cells all exist executes nothing.
func TestSyncSweepSharesCells(t *testing.T) {
	const sweep = `{"scenarios":["sdr-radio"],"policies":["eb","tb"],"delta":3,"warmup_s":0.3,"measure_s":0.5}`
	const cell = `{"scenario":"sdr-radio","policy":"tb","delta":3,"warmup_s":0.3,"measure_s":0.5}`

	s, ts := newTestServer(t, Config{})
	if resp, b := do(t, http.MethodPost, ts.URL+"/matrix", sweep); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, b)
	}
	if got := s.Stats().Executions; got != 2 {
		t.Errorf("sweep executions = %d, want one per cell (2)", got)
	}
	resp, hit := do(t, http.MethodPost, ts.URL+"/run", cell)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("/run of a swept cell X-Cache = %q, want hit", got)
	}
	_, freshTS := newTestServer(t, Config{})
	resp, fresh := do(t, http.MethodPost, freshTS.URL+"/run", cell)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("fresh /run X-Cache = %q, want miss", got)
	}
	if !bytes.Equal(hit, fresh) {
		t.Errorf("swept cell body differs from a fresh run:\n%s\nvs\n%s", hit, fresh)
	}

	s2, ts2 := newTestServer(t, Config{})
	for _, pol := range []string{"eb", "tb"} {
		run := fmt.Sprintf(`{"scenario":"sdr-radio","policy":%q,"delta":3,"warmup_s":0.3,"measure_s":0.5}`, pol)
		if resp, b := do(t, http.MethodPost, ts2.URL+"/run", run); resp.StatusCode != http.StatusOK {
			t.Fatalf("/run %s: %d %s", pol, resp.StatusCode, b)
		}
	}
	before := s2.Stats().Executions
	if resp, b := do(t, http.MethodPost, ts2.URL+"/matrix", sweep); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep over run cells: %d %s", resp.StatusCode, b)
	}
	if added := s2.Stats().Executions - before; added != 0 {
		t.Errorf("sweep over existing cells added %d executions, want 0", added)
	}
}
