package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"thermbal/internal/obs"
)

// reqKind is a request type of the serve mix.
type reqKind int

const (
	kindRun    reqKind = iota // POST /run
	kindMatrix                // POST /matrix (synchronous sweep)
	kindJob                   // POST /jobs (matrix job, drained later)
)

func (k reqKind) path() string {
	switch k {
	case kindMatrix:
		return "/matrix"
	case kindJob:
		return "/jobs"
	}
	return "/run"
}

// planned is one request of a serve workload, prepared before the
// window opens: its wire body plus what the oracle expects back.
type planned struct {
	kind reqKind
	body []byte
	// key is the content address the response must carry (X-Content-Key
	// for /run and /matrix, the job's key for /jobs).
	key string
	// expect, when set, is the exact response body (serve-hot); for a
	// job it is the result document.
	expect []byte
	// simS is the simulated time the request delivers; cells is the
	// number of runs it is made of (a sweep's cross product).
	simS  float64
	cells int
	idx   int // index into the workload's request table
}

// item is one scheduled arrival: a planned request and its absolute due
// time (offset from the schedule's start).
type item struct {
	due  time.Duration
	req  *planned
	rung int // -1: warm-up, not measured
}

// sample is what the client observed for one item. Latency runs from
// the due time to the last response byte, so time spent waiting for a
// free connection counts — no coordinated omission.
type sample struct {
	sent, end time.Time
	due       time.Time
	// genLate is how far past its due time the request was sent while
	// its connection sat idle waiting for it: generator (timer)
	// lateness, not queueing behind a busy connection.
	genLate  time.Duration
	idleWait bool
	status   int
	err      error
	key      string
	body     []byte
	timing   map[string]int64 // X-Timing stage → µs
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.due) }

// client drives a server with at most conns keep-alive connections.
type client struct {
	base  string
	http  *http.Client
	conns int
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, conns: conns}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// run executes the schedule open loop: conns workers take items in due
// order; each waits for its item's absolute due time (start + item.due,
// if it is early) and sends it. A late worker sends at once and the wait
// shows in the latency. tr, when non-nil, records one span tree per
// /run request.
func (c *client) run(ctx context.Context, start time.Time, items []item, tr *tracer) []sample {
	out := make([]sample, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(items) || ctx.Err() != nil {
					return
				}
				it := items[k]
				s := &out[k]
				s.due = start.Add(it.due)
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
					s.idleWait = true
				}
				s.sent = time.Now()
				if s.idleWait {
					s.genLate = s.sent.Sub(s.due)
				}
				status, hdr, body, err := c.do(ctx, http.MethodPost, it.req.kind.path(), it.req.body)
				s.end = time.Now()
				s.status, s.body, s.err = status, body, err
				if hdr != nil {
					s.key = hdr.Get("X-Content-Key")
					if v := hdr.Get("X-Timing"); v != "" {
						s.timing, _ = obs.ParseHeaderValue(v)
					}
				}
				if tr != nil && it.req.kind == kindRun {
					traceRequest(tr, int64(k), s)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// serverStages maps X-Timing stages to the layer that owns them.
var serverStages = []struct{ stage, layer string }{
	{"queue", "service"},
	{"coalesce", "service"},
	{"execute", "sim"},
	{"encode", "service"},
	{"store", "store"},
}

// traceRequest records a request's span tree: the root (due → last
// byte), the client's wait for a connection, and the HTTP exchange with
// the server's X-Timing stages as its children. Stage spans carry the
// server-reported durations laid end to end from the send time; their
// absolute placement is approximate, their lengths are measured.
func traceRequest(tr *tracer, req int64, s *sample) {
	root := tr.reserve(req, "request", "bench")
	tr.add(req, root, "client.wait", "bench", s.due, s.sent)
	exch := tr.add(req, root, "http.exchange", "service", s.sent, s.end)
	at := s.sent
	for _, st := range serverStages {
		us := s.timing[st.stage]
		if us <= 0 {
			continue
		}
		end := at.Add(time.Duration(us) * time.Microsecond)
		tr.add(req, exch, "server."+st.stage, st.layer, at, end)
		at = end
	}
	tr.finish(root, s.due, s.end)
}
