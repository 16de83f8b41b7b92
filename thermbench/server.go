package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"thermbal/internal/service"
)

// server is one thermservd process under test.
type server struct {
	cmd  *exec.Cmd
	base string
	pid  int
	done chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startServer launches thermservd on an ephemeral port and returns once
// it answers /healthz, with the time that took (process start, store
// open and recovery scan, listen).
func startServer(bin, dataDir string, extra ...string) (*server, time.Duration, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, done: make(chan struct{})}
	addr := make(chan string, 1)
	go s.drain(stderr, addr)
	go func() {
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case s.base = <-addr:
	case <-s.done:
		return nil, 0, fmt.Errorf("thermservd exited during start-up: %s", s.stderrTail())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("thermservd did not start listening within 30s: %s", s.stderrTail())
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("thermservd not healthy within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(start), nil
}

// drain reads the server's log, reporting the listen address once and
// keeping the last lines.
func (s *server) drain(r io.Reader, addr chan<- string) {
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.tail = append(s.tail, line)
		if len(s.tail) > 20 {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
		if _, url, ok := strings.Cut(line, "listening on "); ok && !sent {
			addr <- strings.TrimSpace(url)
			sent = true
		}
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// stop shuts the server down gracefully (SIGTERM), killing it if it has
// not exited after 20 s, and waits for the process to end.
func (s *server) stop() {
	if s == nil {
		return
	}
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// stats fetches /stats.
func (s *server) stats(ctx context.Context, c *client) (service.StatsDoc, error) {
	var st service.StatsDoc
	status, _, body, err := c.do(ctx, http.MethodGet, "/stats", nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}
