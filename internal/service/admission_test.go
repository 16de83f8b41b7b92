package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"thermbal/internal/experiment"
	"thermbal/internal/sim"
)

// Overload e2e tests: drive the server into each admission-control
// refusal over real HTTP and assert the deliberate behavior — 429s and
// 503s carry Retry-After, quotas isolate tenants, interactive work
// overtakes queued bulk work, and every shed decision is counted
// exactly once in /stats and /metrics.

// retryAfterSecs asserts the response carries an integer-seconds
// Retry-After of at least 1 and returns it.
func retryAfterSecs(t *testing.T, resp *http.Response) int {
	t.Helper()
	v := resp.Header.Get("Retry-After")
	if v == "" {
		t.Fatalf("status %d response has no Retry-After header", resp.StatusCode)
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", v)
	}
	return secs
}

// scrapeMetric fetches /metrics and returns the named series' value.
func scrapeMetric(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	resp, b := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %s value %q: %v", series, rest, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuotaExhaustion429 exhausts one tenant's token bucket and
// asserts the 429 carries Retry-After while a second tenant's traffic
// is untouched, with the denial counted in /stats and /metrics.
func TestQuotaExhaustion429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		QuotaRPS:   1,
		QuotaBurst: 2,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})
	// Freeze the quota clock so buckets cannot refill mid-test.
	frozen := time.Now()
	s.quota.now = func() time.Time { return frozen }

	asTenant := func(tenant string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(shortRun))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	// Tenant A's burst of 2 is admitted; the third request is denied.
	for i := 0; i < 2; i++ {
		resp, b := asTenant("tenant-a")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant-a request %d: status %d: %s", i, resp.StatusCode, b)
		}
	}
	resp, b := asTenant("tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant-a over-quota request: status %d, want 429: %s", resp.StatusCode, b)
	}
	retryAfterSecs(t, resp)

	// Tenant B is isolated: its own bucket is full.
	resp, b = asTenant("tenant-b")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant-b request: status %d, want 200: %s", resp.StatusCode, b)
	}

	st := s.Stats()
	if st.Admission.Quota == nil {
		t.Fatal("/stats admission.quota absent with quotas enabled")
	}
	if st.Admission.Quota.Denied != 1 {
		t.Errorf("/stats quota.denied = %d, want 1", st.Admission.Quota.Denied)
	}
	if st.Admission.Quota.Tenants != 2 {
		t.Errorf("/stats quota.tenants = %d, want 2", st.Admission.Quota.Tenants)
	}
	if got := scrapeMetric(t, ts, "thermbal_quota_denied_total"); got != 1 {
		t.Errorf("thermbal_quota_denied_total = %g, want 1", got)
	}
	if got := scrapeMetric(t, ts, "thermbal_quota_tenants"); got != 2 {
		t.Errorf("thermbal_quota_tenants = %g, want 2", got)
	}
}

// TestInteractiveOvertakesBulk saturates a single execution slot,
// queues a bulk sweep's cells behind it, then arrives an interactive
// /run and asserts the freed slot goes to the interactive request
// ahead of every already-waiting bulk cell.
func TestInteractiveOvertakesBulk(t *testing.T) {
	var (
		mu      sync.Mutex
		order   []string
		release = make(chan struct{})
	)
	s, ts := newTestServer(t, Config{
		MaxSims: 1,
		// Runs are told apart by their distinct measure_s: the holder
		// measures 1, the bulk sweep cells 2, the late interactive run
		// 3 and the late sync sweep's cell 4.
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			mu.Lock()
			order = append(order, fmt.Sprintf("%g", rc.MeasureS))
			mu.Unlock()
			<-release
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})

	executed := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(order)
	}

	// 1. An interactive run takes the only slot and parks in the engine.
	const holder = `{"scenario":"sdr-radio","policy":"tb","delta":3,"warmup_s":0.5,"measure_s":1}`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := do(t, http.MethodPost, ts.URL+"/run", holder)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("holder /run: status %d: %s", resp.StatusCode, b)
		}
	}()
	waitFor(t, "holder to enter the engine", func() bool { return executed() == 1 })

	// 2. A bulk sweep's cells queue behind it at bulk priority.
	const sweep = `{"matrix":{"scenarios":["sdr-radio"],"policies":["eb","tb"],"delta":3,"warmup_s":0.5,"measure_s":2}}`
	resp, b := do(t, http.MethodPost, ts.URL+"/jobs", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: status %d: %s", resp.StatusCode, b)
	}
	var submitted JobStatus
	if err := json.Unmarshal(b, &submitted); err != nil {
		t.Fatalf("decode job submit: %v", err)
	}
	waitFor(t, "sweep cells to wait for a slot", func() bool {
		waiting, _ := s.slots.depths()
		return waiting[prioBulk] >= 1
	})

	// 3. A new interactive run arrives after the bulk cells are queued.
	const interactive = `{"scenario":"sdr-radio","policy":"tb","delta":3,"warmup_s":0.5,"measure_s":3}`
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := do(t, http.MethodPost, ts.URL+"/run", interactive)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("interactive /run: status %d: %s", resp.StatusCode, b)
		}
	}()
	waitFor(t, "interactive run to wait for a slot", func() bool {
		waiting, _ := s.slots.depths()
		return waiting[prioInteractive] == 1
	})

	// 4. A sync sweep arrives last; its cell queues as interactive too.
	const syncSweep = `{"scenarios":["sdr-radio"],"policies":["tb"],"delta":3,"warmup_s":0.5,"measure_s":4}`
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, b := do(t, http.MethodPost, ts.URL+"/matrix", syncSweep)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("sync /matrix: status %d: %s", resp.StatusCode, b)
		}
	}()
	waitFor(t, "sync sweep cell to wait for a slot", func() bool {
		waiting, _ := s.slots.depths()
		return waiting[prioInteractive] == 2
	})

	// Saturation is visible in /stats before anything is released.
	st := s.Stats()
	if st.Admission.ExecQueue.Free != 0 || st.Admission.ExecQueue.WaitingInteractive != 2 {
		t.Errorf("/stats exec_queue = %+v, want 0 free and 2 interactive waiters", st.Admission.ExecQueue)
	}

	// 5. Free the slot twice: both interactive waiters, in arrival
	// order, take it even though bulk cells were queued first.
	release <- struct{}{}
	waitFor(t, "the freed slot's next execution", func() bool { return executed() == 2 })
	release <- struct{}{}
	waitFor(t, "the slot's third execution", func() bool { return executed() == 3 })
	mu.Lock()
	next := append([]string(nil), order[1:3]...)
	mu.Unlock()
	if next[0] != "3" || next[1] != "4" {
		t.Fatalf("executions 2-3 measure %v s, want the interactive run (3 s) and the sync sweep cell (4 s) ahead of the bulk cells (order %v)", next, order)
	}

	// 6. Drain everything: the sync sweep cell, then both job cells.
	release <- struct{}{}
	release <- struct{}{}
	release <- struct{}{}
	wg.Wait()
	waitFor(t, "sweep job to finish", func() bool {
		resp, b := do(t, http.MethodGet, ts.URL+"/jobs/"+submitted.ID, "")
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var jst JobStatus
		if err := json.Unmarshal(b, &jst); err != nil {
			return false
		}
		return jst.State == JobDone
	})
	if got := executed(); got != 5 {
		t.Errorf("executions = %d (%v), want 5 (holder, interactive, sync sweep cell, 2 job cells)", got, order)
	}
}

// TestShedByCost fills the pending simulated-seconds budget and
// asserts new work is refused with 503 + Retry-After while cached keys
// are still served, and that shed counts reconcile across /stats and
// /metrics.
func TestShedByCost(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		MaxSims:        1,
		MaxPendingSimS: 2,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			<-release
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})

	// Each of these costs warmup+measure = 1.5 simulated seconds, so a
	// second admission would need 3.0 against the budget of 2.
	const runA = `{"scenario":"sdr-radio","policy":"tb","delta":3,"warmup_s":0.5,"measure_s":1}`
	const runB = `{"scenario":"sdr-radio","policy":"eb","delta":3,"warmup_s":0.5,"measure_s":1}`
	const runC = `{"scenario":"sdr-radio","policy":"tb","delta":4,"warmup_s":0.5,"measure_s":1}`

	var wg sync.WaitGroup
	start := func(body string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := do(t, http.MethodPost, ts.URL+"/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("admitted /run: status %d: %s", resp.StatusCode, b)
			}
		}()
	}

	// runA is admitted (idle budget) and parks in the engine holding its
	// 1.5s reservation.
	start(runA)
	waitFor(t, "runA's cost reservation", func() bool { return s.budget.pendingSimS() == 1.5 })

	// runB would overflow the budget: shed, with Retry-After.
	resp, b := do(t, http.MethodPost, ts.URL+"/run", runB)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget /run: status %d, want 503: %s", resp.StatusCode, b)
	}
	retryAfterSecs(t, resp)

	// Let runA finish; its result is now cached and its reservation
	// released.
	release <- struct{}{}
	wg.Wait()
	waitFor(t, "runA's reservation release", func() bool { return s.budget.pendingSimS() == 0 })

	// Fill the budget again with runC, then assert the shed applies only
	// to work that would execute: fresh runB is refused, cached runA is
	// served.
	start(runC)
	waitFor(t, "runC's cost reservation", func() bool { return s.budget.pendingSimS() == 1.5 })
	resp, _ = do(t, http.MethodPost, ts.URL+"/run", runB)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second over-budget /run: status %d, want 503", resp.StatusCode)
	}
	retryAfterSecs(t, resp)
	resp, _ = do(t, http.MethodPost, ts.URL+"/run", runA)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("cached /run under full budget: status %d, X-Cache %q; want 200 hit",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	// Both refusals are counted, once each, in /stats and /metrics.
	st := s.Stats()
	if st.Admission.Shed.Cost != 2 {
		t.Errorf("/stats shed.cost = %d, want 2", st.Admission.Shed.Cost)
	}
	if st.Admission.PendingSimS != 1.5 {
		t.Errorf("/stats pending_sim_s = %g, want 1.5", st.Admission.PendingSimS)
	}
	if st.Admission.MaxPendingSimS != 2 {
		t.Errorf("/stats max_pending_sim_s = %g, want 2", st.Admission.MaxPendingSimS)
	}
	if got := scrapeMetric(t, ts, `thermbal_shed_total{reason="cost"}`); got != 2 {
		t.Errorf(`thermbal_shed_total{reason="cost"} = %g, want 2`, got)
	}
	if got := scrapeMetric(t, ts, "thermbal_pending_sim_seconds"); got != 1.5 {
		t.Errorf("thermbal_pending_sim_seconds = %g, want 1.5", got)
	}

	release <- struct{}{}
	wg.Wait()
}

// TestJobQueueFullRetryAfter fills the async job queue and asserts the
// structural 503 also carries Retry-After and increments the
// queue_full shed counter.
func TestJobQueueFullRetryAfter(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		JobWorkers: 1,
		QueueDepth: 1,
		MaxSims:    1,
		runSim: func(rc experiment.RunConfig) (sim.Result, error) {
			<-release
			return sim.Result{PolicyName: rc.PolicyName, MeasuredS: rc.MeasureS}, nil
		},
	})

	submit := func(delta int) (*http.Response, []byte) {
		body := fmt.Sprintf(`{"run":{"scenario":"sdr-radio","policy":"tb","delta":%d,"warmup_s":0.5,"measure_s":1}}`, delta)
		return do(t, http.MethodPost, ts.URL+"/jobs", body)
	}

	// Job 1 is claimed by the single worker and parks in the engine.
	resp, b := submit(1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", resp.StatusCode, b)
	}
	waitFor(t, "job 1 to start running", func() bool {
		return s.jobs.stats(1).Running == 1
	})

	// Job 2 fills the queue; job 3 is refused with Retry-After.
	resp, b = submit(2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d: %s", resp.StatusCode, b)
	}
	resp, b = submit(3)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job 3: status %d, want 503: %s", resp.StatusCode, b)
	}
	retryAfterSecs(t, resp)

	st := s.Stats()
	if st.Admission.Shed.QueueFull != 1 {
		t.Errorf("/stats shed.queue_full = %d, want 1", st.Admission.Shed.QueueFull)
	}
	if st.Jobs.QueueCap != 1 {
		t.Errorf("/stats jobs.queue_cap = %d, want 1", st.Jobs.QueueCap)
	}
	if got := scrapeMetric(t, ts, `thermbal_shed_total{reason="queue_full"}`); got != 1 {
		t.Errorf(`thermbal_shed_total{reason="queue_full"} = %g, want 1`, got)
	}

	// Drain both accepted jobs.
	release <- struct{}{}
	release <- struct{}{}
	waitFor(t, "accepted jobs to finish", func() bool {
		js := s.jobs.stats(1)
		return js.Done == 2
	})
}
