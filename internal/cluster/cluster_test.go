package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/retry"
	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
)

// testConfig builds a distinct valid config per index.
func testConfig(i int) sim.Config {
	return sim.Config{
		Benchmark:    "gcc",
		Seed:         uint64(i + 1),
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		MeasureInsts: 1000,
	}
}

// stubSim derives a deterministic result from the config alone, so
// byte-identical results across any dispatch path are checkable.
func stubSim(_ context.Context, cfg sim.Config) (sim.Result, error) {
	return sim.Result{Benchmark: cfg.Benchmark, Cycles: cfg.Seed * 10, IPC: float64(cfg.Seed)}, nil
}

// testWorker is one in-process hbserved worker: a real Service over a
// real runner behind a real HTTP listener — the same wire protocol a
// separate process would speak, minus the process.
type testWorker struct {
	svc  *service.Service
	ts   *httptest.Server
	sims atomic.Int64 // simulator executions (not store/memo hits)
}

// newTestWorker spins up a worker whose runner uses the given store
// (nil for storeless) and sim (nil for stubSim).
func newTestWorker(t *testing.T, store runner.Store, simFn func(context.Context, sim.Config) (sim.Result, error)) *testWorker {
	t.Helper()
	tw := &testWorker{}
	inner := simFn
	if inner == nil {
		inner = stubSim
	}
	counted := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		tw.sims.Add(1)
		return inner(ctx, cfg)
	}
	r, err := runner.New(runner.Options{Workers: 4, Sim: counted, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	tw.svc = service.New(r, service.Options{RetryAfter: 10 * time.Millisecond})
	tw.ts = httptest.NewServer(tw.svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = tw.svc.Shutdown(ctx)
		tw.ts.Close()
	})
	return tw
}

// newSharedStore stands up the coordinator-side HTTP store: a
// StoreServer over a MemStore, which every worker's RemoteStore points
// at.
func newSharedStore(t *testing.T) (*runner.StoreServer, string) {
	t.Helper()
	srv := runner.NewStoreServer(runner.NewMemStore())
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// deadWorkerURL returns a URL nothing listens on (connection refused).
func deadWorkerURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	return url
}

func fastOptions(workers ...string) Options {
	return Options{
		Workers:      workers,
		HedgeAfter:   -1, // hedging exercised by its own test
		RetryBackoff: -1, // no inter-attempt sleeps
	}
}

// slowSim is stubSim after a 5ms pause, so a sweep's dispatches
// overlap and the least-loaded pick spreads them over the fleet.
func slowSim(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	if !retry.Sleep(ctx, 5*time.Millisecond) {
		return sim.Result{}, ctx.Err()
	}
	return stubSim(ctx, cfg)
}

// runSweep runs cfgs the way the coordinator's hbserved does: a runner
// whose simulator is coord.Run, four points in flight per worker. Each
// call builds a fresh runner, so its memo holds this sweep alone and
// any overlap with an earlier sweep reaches the fleet.
func runSweep(ctx context.Context, coord *Coordinator, cfgs []sim.Config) ([]runner.JobResult, error) {
	r, err := runner.New(runner.Options{Workers: 4 * len(coord.Health()), Sim: coord.Run})
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, cfgs)
}

// TestClusterDedupExactlyOnce is the cluster-wide dedup pin: workers
// sharing one remote store run two overlapping sweeps, and each unique
// config is simulated exactly once across the whole fleet — the overlap
// is served from the shared store, asserted via its hit counters. Sweep
// A spreads over w1 and w2; both then drain and w3 joins, so every
// overlap point of sweep B reaches a worker that never ran it (a worker
// that had would answer from its own job dedup, not the store).
func TestClusterDedupExactlyOnce(t *testing.T) {
	srv, storeURL := newSharedStore(t)
	w1 := newTestWorker(t, runner.NewRemoteStore(storeURL, nil, nil), slowSim)
	w2 := newTestWorker(t, runner.NewRemoteStore(storeURL, nil, nil), slowSim)
	w3 := newTestWorker(t, runner.NewRemoteStore(storeURL, nil, nil), slowSim)
	coord, err := New(fastOptions(w1.ts.URL, w2.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sweepA := make([]sim.Config, 6) // points 0..5
	for i := range sweepA {
		sweepA[i] = testConfig(i)
	}
	sweepB := make([]sim.Config, 6) // points 3..8: overlaps A on 3,4,5
	for i := range sweepB {
		sweepB[i] = testConfig(i + 3)
	}

	check := func(name string, res []runner.JobResult, cfgs []sim.Config) {
		t.Helper()
		for i, jr := range res {
			if jr.Err != nil {
				t.Fatalf("%s point %d failed: %v", name, i, jr.Err)
			}
			want, _ := stubSim(ctx, cfgs[i])
			if jr.Result.Cycles != want.Cycles || jr.Result.IPC != want.IPC {
				t.Errorf("%s point %d = %+v, want %+v", name, i, jr.Result, want)
			}
		}
	}

	resA, err := runSweep(ctx, coord, sweepA)
	if err != nil {
		t.Fatal(err)
	}
	check("sweepA", resA, sweepA)
	// Both workers actually participated (overlapping dispatches go to
	// the least-loaded worker).
	if w1.sims.Load() == 0 || w2.sims.Load() == 0 {
		t.Errorf("lopsided fleet: w1=%d w2=%d simulations", w1.sims.Load(), w2.sims.Load())
	}

	coord.Register(w3.ts.URL)
	coord.Deregister(w1.ts.URL)
	coord.Deregister(w2.ts.URL)
	resB, err := runSweep(ctx, coord, sweepB)
	if err != nil {
		t.Fatal(err)
	}
	check("sweepB", resB, sweepB)

	const unique = 9 // 0..8
	if total := w1.sims.Load() + w2.sims.Load() + w3.sims.Load(); total != unique {
		t.Errorf("fleet simulated %d times (w1=%d w2=%d w3=%d), want exactly %d — one per unique config",
			total, w1.sims.Load(), w2.sims.Load(), w3.sims.Load(), unique)
	}
	if got := w3.sims.Load(); got != 3 {
		t.Errorf("w3 simulated %d times, want 3 (points 6..8)", got)
	}
	st := srv.Stats()
	if st.Puts != unique {
		t.Errorf("store received %d puts, want %d", st.Puts, unique)
	}
	if st.Hits != 3 {
		t.Errorf("store served %d hits, want 3 (the A∩B overlap)", st.Hits)
	}
}

// TestDeadWorkerReassignment: one worker is unreachable from the start;
// every point dispatched to it must reassign to the live peer, the
// sweep must complete, and the dead worker's breaker must open.
func TestDeadWorkerReassignment(t *testing.T) {
	w := newTestWorker(t, nil, nil)
	dead := deadWorkerURL(t)
	opts := fastOptions(dead, w.ts.URL)
	opts.BreakerThreshold = 2
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cfgs := make([]sim.Config, 10)
	for i := range cfgs {
		cfgs[i] = testConfig(i)
	}
	res, err := runSweep(ctx, coord, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range res {
		if jr.Err != nil {
			t.Errorf("point %d failed despite a live peer: %v", i, jr.Err)
		}
	}
	health := coord.Health()
	if health[0].URL != dead {
		t.Fatalf("health order: got %s first, want the dead worker", health[0].URL)
	}
	if health[0].Failed == 0 {
		t.Error("dead worker recorded no dispatch failures")
	}
	if health[0].Healthy || health[0].Breaker != "open" {
		t.Errorf("dead worker health = %+v, want an open breaker", health[0])
	}
	if health[1].Completed != 10 {
		t.Errorf("live worker completed %d points, want all 10", health[1].Completed)
	}
}

// TestWorkerKilledMidSweep kills a worker while a sweep is in flight:
// points already dispatched to it must fail over mid-job (SSE stream
// drops, poll fails, the point rotates to the survivor) and the sweep
// still completes with every point accounted for.
func TestWorkerKilledMidSweep(t *testing.T) {
	w1 := newTestWorker(t, nil, slowSim)
	w2 := newTestWorker(t, nil, slowSim)
	opts := fastOptions(w1.ts.URL, w2.ts.URL)
	opts.BreakerThreshold = 2
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfgs := make([]sim.Config, 40)
	for i := range cfgs {
		cfgs[i] = testConfig(i)
	}
	done := make(chan struct{})
	var res []runner.JobResult
	var sweepErr error
	go func() {
		defer close(done)
		res, sweepErr = runSweep(ctx, coord, cfgs)
	}()

	// Let the sweep get going, then kill worker 2's listener: in-flight
	// SSE streams and future dispatches to it start failing.
	time.Sleep(25 * time.Millisecond)
	w2.ts.CloseClientConnections()
	w2.ts.Close()

	<-done
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	for i, jr := range res {
		if jr.Err != nil {
			t.Errorf("point %d failed despite failover: %v", i, jr.Err)
		}
		want, _ := stubSim(ctx, cfgs[i])
		if jr.Err == nil && jr.Result.Cycles != want.Cycles {
			t.Errorf("point %d cycles = %d, want %d", i, jr.Result.Cycles, want.Cycles)
		}
	}
}

// TestJobFailureNotRedispatched: a config that fails deterministically
// on a worker must surface as that failure, not bounce around the
// fleet re-failing on every member.
func TestJobFailureNotRedispatched(t *testing.T) {
	boom := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		return sim.Result{}, fmt.Errorf("synthetic model failure: %w", sim.ErrInvalidConfig)
	}
	w1 := newTestWorker(t, nil, boom)
	w2 := newTestWorker(t, nil, boom)
	coord, err := New(fastOptions(w1.ts.URL, w2.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), testConfig(1))
	if err == nil {
		t.Fatal("Run of a failing config succeeded")
	}
	if !JobFailed(err) {
		t.Errorf("error not classified as a worker-side job failure: %v", err)
	}
	health := coord.Health()
	if n := health[0].Dispatched + health[1].Dispatched; n != 1 {
		t.Errorf("deterministic failure dispatched %d times, want exactly 1 (no cross-worker retry)", n)
	}
	// A job-level failure is not a transport failure: the worker that
	// ran it stays healthy.
	for _, h := range health {
		if !h.Healthy {
			t.Errorf("worker %s unhealthy after a job-level failure", h.URL)
		}
	}
}

// TestAllWorkersDown: with every breaker open, dispatch surfaces
// ErrNoWorkers instead of spinning.
func TestAllWorkersDown(t *testing.T) {
	opts := fastOptions(deadWorkerURL(t))
	opts.BreakerThreshold = 1
	opts.DispatchRetries = 3
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), testConfig(1))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Run with a dead fleet = %v, want ErrNoWorkers", err)
	}
	if h := coord.Health(); h[0].Healthy || h[0].Breaker != "open" {
		t.Errorf("dead worker health = %+v, want an open breaker", h[0])
	}
}

// TestHedgingStealsFromStraggler: the point's primary attempt stalls
// on slow, and a blocker then stalls on fast, so when the hedge fires
// both workers hold one point. The hedge must still avoid slow, the
// worker holding the primary (whose own dedup would join the hedge to
// the stalled job), and land on fast, whose result wins well inside
// the deadline.
func TestHedgingStealsFromStraggler(t *testing.T) {
	release := make(chan struct{})
	stall := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		return stubSim(ctx, cfg)
	}
	point, blocker := testConfig(7), testConfig(99)
	slow := newTestWorker(t, nil, stall)
	fast := newTestWorker(t, nil, func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		if cfg.Seed == blocker.Seed {
			return stall(ctx, cfg)
		}
		return stubSim(ctx, cfg)
	})
	t.Cleanup(func() { close(release) }) // unblock the stalled jobs before shutdown

	coord, err := New(Options{
		Workers:      []string{slow.ts.URL, fast.ts.URL},
		HedgeAfter:   50 * time.Millisecond,
		RetryBackoff: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	type res struct {
		r   sim.Result
		err error
	}
	done := make(chan res, 1)
	go func() {
		r, err := coord.Run(ctx, point)
		done <- res{r, err}
	}()
	// The point goes first, to slow (loads tie, slow is the earlier
	// member); the blocker then goes to the idle fast.
	for coord.Health()[0].Inflight == 0 {
		if ctx.Err() != nil {
			t.Fatal("the point was never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	bctx, bcancel := context.WithCancel(ctx)
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		_, _ = coord.Run(bctx, blocker)
	}()
	defer func() {
		bcancel()
		<-blocked
	}()

	out := <-done
	if out.err != nil {
		t.Fatalf("hedged point failed: %v (the hedge went back to the straggler)", out.err)
	}
	if want, _ := stubSim(ctx, point); out.r.Cycles != want.Cycles {
		t.Errorf("hedged result = %+v, want %+v", out.r, want)
	}
	// The blocker never completes, so fast's one completion is the
	// hedged point. (The blocker's own hedge lands on slow, so slow's
	// dispatch count says nothing about the point.)
	if h := coord.Health()[1]; h.Completed != 1 {
		t.Errorf("fast worker health = %+v, want the hedged point completed", h)
	}
}

// TestSweepCancellation: cancelling mid-sweep returns promptly with
// every unfinished point carrying the cancellation error.
func TestSweepCancellation(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	stall := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return sim.Result{}, ctx.Err()
	}
	w := newTestWorker(t, nil, stall)
	coord, err := New(fastOptions(w.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	cfgs := make([]sim.Config, 8)
	for i := range cfgs {
		cfgs[i] = testConfig(i)
	}
	res, err := runSweep(ctx, coord, cfgs)
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	for i, jr := range res {
		if jr.Err == nil && !jr.MemoHit {
			t.Errorf("point %d has no error after cancellation: %+v", i, jr)
		}
	}
}
