package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hbcache/internal/fault"
	"hbcache/internal/retry"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
)

// TestChaosHungSimFreedByJobTimeout is the acceptance test for true
// end-to-end cancellation: a simulation that hangs (injected via
// internal/fault at the sim.run site, exactly like a livelocked core
// model) is cut down by the service's JobTimeout — the job fails with
// an abort-class error, the worker goroutine is released (proven by a
// second job completing on the same single worker against the REAL
// simulator), and no goroutines are leaked.
func TestChaosHungSimFreedByJobTimeout(t *testing.T) {
	reg := fault.New(7).Add(fault.Rule{Site: fault.SiteSimRun, Kind: fault.KindHang, Limit: 1})
	r, err := runner.New(runner.Options{Workers: 1, Faults: reg}) // Sim nil: the real simulator
	if err != nil {
		t.Fatal(err)
	}
	// Generous enough for the clean follow-up job to finish under -race,
	// short enough that a hang is cut down promptly.
	svc := New(r, Options{QueueSize: 8, Concurrency: 1, JobTimeout: 5 * time.Second})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
		ts.Close()
	})
	baseline := runtime.NumGoroutine()

	// First submission hits the hang rule and must be stopped by the
	// timeout, not run forever.
	hung, _, err := svc.Submit(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	view := waitState(t, svc, hung.ID)
	held := time.Since(start)
	if view.State != StateFailed {
		t.Fatalf("hung job state = %s, want failed", view.State)
	}
	if !strings.Contains(view.Error, "abort") {
		t.Errorf("hung job error = %q, want an abort-class message", view.Error)
	}
	if held > 30*time.Second {
		t.Errorf("JobTimeout took %v to fire", held)
	}
	if reg.Fired(fault.SiteSimRun) != 1 {
		t.Fatalf("hang fired %d times, want 1", reg.Fired(fault.SiteSimRun))
	}

	// The single worker must now be free: a clean config runs the real
	// simulator to completion.
	ok, _, err := svc.Submit(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if view := waitState(t, svc, ok.ID); view.State != StateDone {
		t.Fatalf("post-hang job = %s (%s), want done: the worker was not freed", view.State, view.Error)
	}

	// The hang's watcher and Fire goroutines must unwind once released.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+3 })
}

// TestChaosBreakerOpensAndRecovers drives the circuit breaker through
// its full cycle over HTTP: consecutive failures trip it open (503 +
// Retry-After), the cooldown admits a half-open probe, and a probe
// success closes it again.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	svc, ts := newTestServer(t, func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		if failing.Load() {
			return sim.Result{}, fmt.Errorf("injected backend failure for seed %d", cfg.Seed)
		}
		return stubSim(ctx, cfg)
	}, Options{QueueSize: 8, Concurrency: 1, BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond})

	// Two distinct failing configs (the memo would dedup repeats of one)
	// reach the threshold.
	for i := 0; i < 2; i++ {
		view, _, err := svc.Submit(testConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		if v := waitState(t, svc, view.ID); v.State != StateFailed {
			t.Fatalf("setup job %d = %s, want failed", i, v.State)
		}
	}

	// Open: submissions are refused with 503 + Retry-After.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", submitRequest{Config: testConfig(2)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker returned %d, want 503\n%s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q (ceil of the 50ms cooldown)", ra, "1")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("503 body %q is not a well-formed error response", body)
	}
	if !strings.Contains(fetchMetrics(t, ts), "hbserved_breaker_opens_total 1") {
		t.Error("metrics do not show the breaker opening once")
	}

	// After the cooldown, one half-open probe is admitted; its success
	// closes the breaker for everyone.
	failing.Store(false)
	time.Sleep(80 * time.Millisecond)
	probe, _, err := svc.Submit(testConfig(3))
	if err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if v := waitState(t, svc, probe.ID); v.State != StateDone {
		t.Fatalf("probe job = %s, want done", v.State)
	}
	after, _, err := svc.Submit(testConfig(4))
	if err != nil {
		t.Fatalf("closed breaker refused a submit: %v", err)
	}
	if v := waitState(t, svc, after.ID); v.State != StateDone {
		t.Fatalf("post-recovery job = %s, want done", v.State)
	}
	if m := fetchMetrics(t, ts); !strings.Contains(m, "hbserved_breaker_state 0") {
		t.Error("metrics do not show the breaker closed after recovery")
	}
}

// TestChaosSweepTruncatedPartialResults: a sweep whose odd-seed members
// blow their budget still completes, flags itself truncated, and serves
// the surviving points over /results with HTTP 200 — degradation, not
// an error.
func TestChaosSweepTruncatedPartialResults(t *testing.T) {
	svc, ts := newTestServer(t, func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		if cfg.Seed%2 == 1 {
			return sim.Result{}, fmt.Errorf("gcc: %w after 20000 cycles", sim.ErrBudget)
		}
		return stubSim(ctx, cfg)
	}, Options{QueueSize: 16, Concurrency: 2, BreakerThreshold: -1})

	const n = 6 // seeds 1..6: three budget casualties, three survivors
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		cfgs[i] = testConfig(i)
	}
	sw, err := svc.SubmitSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		v, err := svc.Sweep(sw.ID)
		return err == nil && v.Done+v.Failed == v.Total
	})

	view, err := svc.Sweep(sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Done != 3 || view.Failed != 3 || !view.Truncated {
		t.Fatalf("sweep view = %+v, want 3 done / 3 failed / truncated", view)
	}

	var res SweepResults
	if resp := getJSON(t, ts.URL+"/v1/sweeps/"+sw.ID+"/results", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results = %d, want 200 even for a truncated sweep", resp.StatusCode)
	}
	if !res.Complete || !res.Truncated || len(res.Points) != n {
		t.Fatalf("results = complete=%v truncated=%v points=%d, want true/true/%d", res.Complete, res.Truncated, len(res.Points), n)
	}
	for i, p := range res.Points {
		odd := p.Config.Seed%2 == 1
		switch {
		case odd && (p.State != StateFailed || p.Error == "" || p.Result != nil):
			t.Errorf("point %d (budget casualty) = %+v, want failed with error, no result", i, p)
		case !odd && (p.State != StateDone || p.Result == nil || p.Error != ""):
			t.Errorf("point %d (survivor) = %+v, want done with result", i, p)
		}
	}
	if !strings.Contains(fetchMetrics(t, ts), "hbserved_sweeps_truncated_total 1") {
		t.Error("metrics do not count the truncated sweep")
	}
}

// TestChaosSlowSSESubscriberDropped: a subscriber that cannot drain the
// stream within SSEWriteTimeout (simulated by an injected delay at the
// SSE write site) is disconnected and counted, instead of pinning the
// handler goroutine; the events endpoint itself stays healthy.
func TestChaosSlowSSESubscriberDropped(t *testing.T) {
	reg := fault.New(3).Add(fault.Rule{Site: fault.SiteSSEWrite, Kind: fault.KindDelay, Delay: 500 * time.Millisecond})
	release := make(chan struct{})
	svc, ts := newTestServer(t, func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		<-release
		return stubSim(ctx, cfg)
	}, Options{QueueSize: 8, Concurrency: 1, SSEWriteTimeout: 50 * time.Millisecond, Faults: reg})
	defer close(release)

	view, _, err := svc.Submit(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	start := time.Now()
	buf := make([]byte, 1<<10)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break // server dropped us
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("slow subscriber was never dropped")
		}
	}

	waitFor(t, func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.sseDropped >= 1
	})
	if reg.Fired(fault.SiteSSEWrite) == 0 {
		t.Error("the SSE delay fault never fired; the test proved nothing")
	}
}

// TestChaosBreakerReleasesUnusedProbe pins the unused-probe release: a
// half-open breaker grants its single probe slot to a Submit or a
// SubmitSweep that the full queue then refuses, and the refusal frees
// the slot, so the next submission is granted the probe in turn
// instead of bouncing off ErrBreakerOpen until a probe that never ran
// reports. Every settled job reports to the breaker and frees a queue
// slot, so a queue cannot fill up while the breaker is open; the test
// trips the breaker directly, as a failure settled elsewhere would.
func TestChaosBreakerReleasesUnusedProbe(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	svc, _ := newTestServer(t, func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		started <- struct{}{}
		<-release
		return stubSim(ctx, cfg)
	}, Options{QueueSize: 1, Concurrency: 1, BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond})
	defer close(release)

	// One job holds the lone worker, a second fills the lone queue slot.
	if _, _, err := svc.Submit(testConfig(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first job never started")
	}
	if _, _, err := svc.Submit(testConfig(1)); err != nil {
		t.Fatal(err)
	}

	svc.breaker.Report(false) // threshold 1: open
	time.Sleep(40 * time.Millisecond)

	submit := func(i int) error { _, _, err := svc.Submit(testConfig(i)); return err }
	sweep := func(i int) error { _, err := svc.SubmitSweep([]sim.Config{testConfig(i)}); return err }
	for i, fn := range []func(int) error{submit, sweep, submit} {
		// ErrBreakerOpen here means the previous refusal kept the probe
		// slot; ErrQueueFull means this call was granted it.
		if err := fn(2 + i); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("half-open submission %d against a full queue: err = %v, want ErrQueueFull", i, err)
		}
	}
	if st, opens := svc.breaker.State(); st != retry.HalfOpen || opens != 1 {
		t.Fatalf("breaker after the refusals = %v (opens %d), want half-open after one open", st, opens)
	}
}

// TestChaosBreakerDisabled pins the escape hatch: a negative threshold
// never trips, no matter how many consecutive failures land.
func TestChaosBreakerDisabled(t *testing.T) {
	svc, ts := newTestServer(t, func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		return sim.Result{}, fmt.Errorf("always failing")
	}, Options{QueueSize: 16, Concurrency: 1, BreakerThreshold: -1})

	for i := 0; i < 8; i++ {
		view, _, err := svc.Submit(testConfig(i))
		if err != nil {
			t.Fatalf("submit %d refused with breaker disabled: %v", i, err)
		}
		waitState(t, svc, view.ID)
	}
	if m := fetchMetrics(t, ts); !strings.Contains(m, "hbserved_breaker_opens_total 0") {
		t.Error("disabled breaker still opened")
	}
}
