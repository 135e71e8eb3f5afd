package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hbcache/internal/service"
	"hbcache/internal/sim"
)

// This file is the benchmark's own process control and minimal HTTP/SSE
// client. It deliberately does not use cluster.Client: the measuring
// instrument stays out of the code a change may edit.

// buildServer compiles cmd/hbserved from the checkout at root.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/hbserved")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building hbserved: %v\n%s", err, b)
	}
	return nil
}

// server is one running hbserved process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	state  *os.ProcessState // set by stop
	drain  chan struct{}    // closed when stdout is drained
}

// startServer launches hbserved and waits for its listen line and a
// ready /readyz. TMPDIR points into tmp so nothing lands outside it.
func startServer(ctx context.Context, bin, tmp string, args ...string) (*server, error) {
	s := &server{stderr: &bytes.Buffer{}, drain: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	// Should the benchmark die without stopping it, the server goes too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stderr = s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	lines := make(chan string, 1)
	go func() {
		defer close(s.drain)
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		lines <- line
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case line := <-lines:
		addr := strings.TrimSpace(strings.TrimPrefix(line, "listening on "))
		if addr == "" {
			s.kill()
			return nil, fmt.Errorf("hbserved %v exited without listening: %s", args, s.stderr.String())
		}
		s.base = "http://" + addr
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("hbserved %v did not listen within 30s: %s", args, s.stderr.String())
	}
	if err := s.awaitReady(ctx); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// awaitReady polls /readyz until it answers 200.
func (s *server) awaitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 30s: %v", s.base, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM (hbserved drains and exits) and waits; past the
// grace period it kills. It is safe to call twice.
func (s *server) stop() error {
	if s == nil || s.state != nil {
		return nil
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-s.drain
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		s.state = s.cmd.ProcessState
		return err
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("hbserved at %s did not drain within 60s", s.base)
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.drain
	_ = s.cmd.Wait()
	s.state = s.cmd.ProcessState
}

// usage reports a stopped server's CPU time and peak RSS in MiB.
func (s *server) usage() (time.Duration, float64) {
	if s.state == nil {
		return 0, 0
	}
	ru, ok := s.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return s.state.UserTime() + s.state.SystemTime(), 0
	}
	return s.state.UserTime() + s.state.SystemTime(), float64(ru.Maxrss) / 1024
}

// freeAddr reserves a loopback port and releases it for a child to
// bind, so the coordinator's URL is known before its workers start.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// client is the benchmark's HTTP client: at most two connections per
// host, matching the two closed-loop client goroutines.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: 30 * time.Second,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends a request and decodes a JSON reply into out (when non-nil),
// returning the status code. Non-2xx replies are errors.
func (c *client) do(ctx context.Context, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// submitJob posts one config; deduped reports a 200 (an existing job).
func (c *client) submitJob(ctx context.Context, base string, cfg sim.Config) (view service.JobView, deduped bool, err error) {
	body, err := json.Marshal(map[string]any{"config": cfg})
	if err != nil {
		return view, false, err
	}
	var resp struct {
		Job     service.JobView `json:"job"`
		Deduped bool            `json:"deduped"`
	}
	if _, err := c.do(ctx, http.MethodPost, base+"/v1/jobs", body, &resp); err != nil {
		return view, false, err
	}
	return resp.Job, resp.Deduped, nil
}

// events follows an SSE stream, calling on for each event until it
// returns false or the server ends the stream.
func (c *client) events(ctx context.Context, url string, on func(service.Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("undecodable SSE event from %s: %w", url, err)
		}
		if !on(ev) {
			// Drain the rest so the connection can be reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	return sc.Err()
}

// awaitJob waits on the job's SSE stream for a terminal state.
func (c *client) awaitJob(ctx context.Context, base, id string) error {
	terminal := false
	err := c.events(ctx, base+"/v1/jobs/"+id+"/events", func(ev service.Event) bool {
		terminal = ev.State.Terminal()
		return !terminal
	})
	if err == nil && !terminal {
		err = errors.New("job stream ended before a terminal state")
	}
	return err
}

// scrape reads /metrics and sums every sample of each named family
// (labelled samples included).
func (c *client) scrape(ctx context.Context, base string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, n := range names {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(n) + `(?:\{[^}]*\})? ([0-9.eE+-]+)$`)
		for _, m := range re.FindAllSubmatch(body, -1) {
			v, err := strconv.ParseFloat(string(m[1]), 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", n, err)
			}
			out[n] += v
		}
	}
	return out, nil
}

// uploadTrace posts trace bytes and returns the stored digest.
func (c *client) uploadTrace(ctx context.Context, base string, data []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/traces", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var v struct {
		Digest string `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("uploading trace: HTTP %d (%v)", resp.StatusCode, err)
	}
	return v.Digest, nil
}

// fleet is a coordinator with its workers.
type fleet struct {
	coord   *server
	workers []*server
}

// startFleet launches a coordinator (in-memory store, journal in dir)
// over n single-simulator workers sharing its store.
func startFleet(ctx context.Context, bin, dir string, n int) (*fleet, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	coordURL := "http://" + addr
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		w, err := startServer(ctx, bin, dir, "-addr", "127.0.0.1:0", "-role", "worker", "-j", "1",
			"-store", "remote", "-store-url", coordURL, "-trace-dir", filepath.Join(wdir, "traces"))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		urls = append(urls, w.base)
	}
	f.coord, err = startServer(ctx, bin, dir, "-addr", addr, "-role", "coordinator", "-store", "mem",
		"-workers", strings.Join(urls, ","), "-queue", "8192",
		"-journal-dir", filepath.Join(dir, "journal"), "-trace-dir", filepath.Join(dir, "coord-traces"))
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop drains the coordinator first, then the workers.
func (f *fleet) stop() error {
	var errs []error
	if f.coord != nil {
		errs = append(errs, f.coord.stop())
	}
	for _, w := range f.workers {
		errs = append(errs, w.stop())
	}
	return errors.Join(errs...)
}

// usage sums CPU time and peak RSS over the fleet's stopped processes.
func (f *fleet) usage() (time.Duration, float64) {
	var cpu time.Duration
	var rss float64
	for _, s := range append([]*server{f.coord}, f.workers...) {
		c, r := s.usage()
		cpu += c
		rss += r
	}
	return cpu, rss
}
