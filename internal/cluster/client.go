package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hbcache/internal/retry"
	"hbcache/internal/service"
	"hbcache/internal/sim"
)

// Client is the coordinator's HTTP client for one worker: a plain
// hbserved instance whose existing job/queue/SSE protocol is the worker
// API. It carries no per-worker policy (breakers, reassignment, health
// live in the Coordinator); what it does own is wire discipline:
//
//   - 429 and 503 responses are retried honoring the server's
//     Retry-After header (the worker's backpressure and circuit-breaker
//     signals are obeyed, not hammered), bounded by MaxRetries and cut
//     short the moment ctx is cancelled.
//   - SSE streams abort promptly on context cancellation: the read loop
//     runs on the caller's goroutine over a request bound to ctx, so a
//     cancel closes the response body and unblocks the read — no
//     goroutine is left behind pinning a dead stream.
type Client struct {
	base string
	hc   *http.Client
	// maxRetries bounds how many 429/503 responses one call will wait
	// out before giving up.
	maxRetries int
	// retryCap bounds how long one Retry-After hint is honored, so a
	// worker advertising an hour-long cooldown cannot wedge a dispatch
	// slot; past the cap the coordinator's own policy decides.
	retryCap time.Duration
}

// NewClient builds a worker client against base (e.g.
// "http://worker-1:8080"). A nil hc selects a client with sensible
// per-request timeouts disabled (SSE streams are long-lived; requests
// are bounded by their contexts instead).
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		base:       normalizeURL(base),
		hc:         hc,
		maxRetries: 8,
		retryCap:   15 * time.Second,
	}
}

// URL reports the worker's base URL.
func (c *Client) URL() string { return c.base }

// normalizeURL strips trailing slashes from a worker base URL. Both
// NewClient and the membership calls use it, so lookups by URL agree
// with the fleet map.
func normalizeURL(u string) string { return strings.TrimRight(u, "/") }

// errJobFailed marks a job that reached the worker and failed there —
// a deterministic simulation error, not a transport fault. The
// coordinator must not re-dispatch it to another worker: the identical
// failure would recur.
var errJobFailed = errors.New("cluster: job failed on worker")

// JobFailed reports whether err is a worker-side job failure (as
// opposed to a transport or protocol error, which another worker might
// not share).
func JobFailed(err error) bool { return errors.Is(err, errJobFailed) }

// retryAfter parses the server's backoff hint, defaulting to 250ms and
// clamping to cap. Only the delta-seconds form is parsed; HTTP-date
// (rare from our own servers) falls back to the default.
func retryAfter(resp *http.Response, cap time.Duration) time.Duration {
	d := 250 * time.Millisecond
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > cap {
		d = cap
	}
	return d
}

// doJSON performs one request with 429/503 Retry-After discipline and
// decodes a 2xx response into out (when non-nil). Non-retryable error
// statuses surface as errors carrying the server's body.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var encoded []byte
	if body != nil {
		var err error
		encoded, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if encoded != nil {
			rd = bytes.NewReader(encoded)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if encoded != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			d := retryAfter(resp, c.retryCap)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if attempt >= c.maxRetries {
				return fmt.Errorf("cluster: %s %s: HTTP %d after %d attempts", method, path, resp.StatusCode, attempt+1)
			}
			if !retry.Sleep(ctx, d) {
				return ctx.Err()
			}
			continue
		}
		b, readErr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			msg := strings.TrimSpace(string(b))
			if len(msg) > 200 {
				msg = msg[:200]
			}
			return fmt.Errorf("cluster: %s %s: HTTP %d: %s", method, path, resp.StatusCode, msg)
		}
		if readErr != nil {
			return readErr
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(b, out)
	}
}

// SubmitJob submits one config, waiting out the worker's backpressure.
func (c *Client) SubmitJob(ctx context.Context, cfg sim.Config) (service.JobView, error) {
	var resp struct {
		Job service.JobView `json:"job"`
	}
	err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", map[string]any{"config": cfg}, &resp)
	return resp.Job, err
}

// Job fetches a job's current view.
func (c *Client) Job(ctx context.Context, id string) (service.JobView, error) {
	var view service.JobView
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &view)
	return view, err
}

// RegisterWorker announces a worker at url to the coordinator this
// client points at, returning the lease TTL the coordinator grants —
// the worker must heartbeat well within it to stay in the fleet.
func (c *Client) RegisterWorker(ctx context.Context, url string) (ttl time.Duration, err error) {
	var resp struct {
		LeaseTTLMs int64 `json:"lease_ttl_ms"`
	}
	if err := c.doJSON(ctx, http.MethodPost, "/v1/cluster/register", map[string]any{"url": url}, &resp); err != nil {
		return 0, err
	}
	return time.Duration(resp.LeaseTTLMs) * time.Millisecond, nil
}

// HeartbeatWorker renews the worker's lease. A 404 means the
// coordinator no longer knows the worker (restart, expiry) and the
// caller should re-register.
func (c *Client) HeartbeatWorker(ctx context.Context, url string) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/cluster/heartbeat", map[string]any{"url": url}, nil)
}

// DeregisterWorker removes the worker from dispatch ahead of a drain.
func (c *Client) DeregisterWorker(ctx context.Context, url string) error {
	return c.doJSON(ctx, http.MethodPost, "/v1/cluster/deregister", map[string]any{"url": url}, nil)
}

// AwaitJob follows the job's SSE event stream until it reaches a
// terminal state, then fetches and returns the final view (events
// carry states, not results). If the stream fails mid-flight — worker
// died, proxy dropped the connection — it falls back to polling so a
// transient stream problem does not fail a multi-minute simulation;
// ctx remains the overall bound.
func (c *Client) AwaitJob(ctx context.Context, id string) (service.JobView, error) {
	streamErr := c.streamSSE(ctx, "/v1/jobs/"+id+"/events", func(ev service.Event) bool {
		return !ev.State.Terminal()
	})
	if streamErr == nil || errors.Is(streamErr, context.Canceled) || errors.Is(streamErr, context.DeadlineExceeded) {
		if ctx.Err() != nil {
			return service.JobView{}, ctx.Err()
		}
		view, err := c.Job(ctx, id)
		if err != nil {
			return view, err
		}
		if view.State.Terminal() {
			return view, nil
		}
		// Stream ended without a terminal state (server shutdown mid-
		// stream): fall through to polling.
	}
	return c.pollJob(ctx, id)
}

// pollJob polls the job until it is terminal.
func (c *Client) pollJob(ctx context.Context, id string) (service.JobView, error) {
	for {
		view, err := c.Job(ctx, id)
		if err != nil {
			return view, err
		}
		if view.State.Terminal() {
			return view, nil
		}
		if !retry.Sleep(ctx, 25*time.Millisecond) {
			return service.JobView{}, ctx.Err()
		}
	}
}

// streamSSE follows the SSE stream at path on the calling goroutine,
// calling on for each event until on returns false, the server ends the
// stream (terminal state), or ctx is cancelled (returning ctx's error).
// The request is bound to ctx, so cancellation closes the response body
// and the blocked read returns immediately — the no-goroutine-leak
// guarantee the coordinator's reassignment logic depends on.
func (c *Client) streamSSE(ctx context.Context, path string, on func(service.Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	defer func() {
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: GET %s: HTTP %d", path, resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // ids, event names, heartbeats, blank separators
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			return fmt.Errorf("cluster: undecodable SSE event: %w", err)
		}
		if !on(ev) {
			return nil
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	// A clean EOF is the server ending a terminal stream.
	return sc.Err()
}
