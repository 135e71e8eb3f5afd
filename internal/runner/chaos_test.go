package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hbcache/internal/fault"
	"hbcache/internal/sim"
)

// countingSim wraps stubSim with a call counter.
func countingSim(calls *atomic.Int64) func(context.Context, sim.Config) (sim.Result, error) {
	return func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubSim(ctx, cfg)
	}
}

// scanCacheFiles returns the cache files under dir grouped by suffix.
func scanCacheFiles(t *testing.T, dir string) (entries, corrupt, tmp []string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".corrupt"):
			corrupt = append(corrupt, path)
		case strings.Contains(filepath.Base(path), ".tmp-"):
			tmp = append(tmp, path)
		case filepath.Ext(path) == ".json":
			entries = append(entries, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return
}

// TestChaosCorruptCacheEntryQuarantined: a cache entry corrupted on the
// way to disk is detected on the next read, renamed *.corrupt, counted
// in metrics, and recomputed exactly once — never silently re-missed
// forever and never re-parsed.
func TestChaosCorruptCacheEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	reg := fault.New(11).Add(fault.Rule{Site: fault.SiteCacheBytes, Kind: fault.KindCorrupt, Limit: 1})
	first, err := New(Options{Workers: 1, CacheDir: dir, Faults: reg, Sim: countingSim(&calls)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.RunOne(context.Background(), stubConfig(0)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("first run simulated %d times, want 1", calls.Load())
	}

	// A fresh runner over the same dir: the corrupt entry must not be
	// served, must be quarantined, and the job recomputed.
	second, err := New(Options{Workers: 1, CacheDir: dir, Sim: countingSim(&calls)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := second.RunOne(context.Background(), stubConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC != 1 {
		t.Errorf("recomputed result = %+v, want the stub's", res)
	}
	if calls.Load() != 2 {
		t.Errorf("corrupt entry served or lost: %d total sims, want 2", calls.Load())
	}
	if m := second.Metrics(); m.CorruptEntries != 1 {
		t.Errorf("CorruptEntries = %d, want 1", m.CorruptEntries)
	}
	entries, corrupt, tmp := scanCacheFiles(t, dir)
	if len(corrupt) != 1 {
		t.Errorf("found %d *.corrupt files, want 1 (preserved for postmortem)", len(corrupt))
	}
	if len(entries) != 1 {
		t.Errorf("found %d good entries, want 1 (rewritten after recompute)", len(entries))
	}
	if len(tmp) != 0 {
		t.Errorf("stray temp files left behind: %v", tmp)
	}

	// Third runner: the rewritten entry is intact, so a pure cache hit.
	third, err := New(Options{Workers: 1, CacheDir: dir, Sim: countingSim(&calls)})
	if err != nil {
		t.Fatal(err)
	}
	jr := runJob(context.Background(), third, stubConfig(0))
	if jr.Err != nil || !jr.CacheHit {
		t.Errorf("after quarantine+recompute, Run = %+v, want clean cache hit", jr)
	}
	if calls.Load() != 2 {
		t.Errorf("rewritten entry re-simulated: %d total sims, want 2", calls.Load())
	}
}

// TestChaosCacheReadErrorIsMiss: an injected I/O error on cache read
// degrades to a miss (re-simulate) without quarantining anything.
func TestChaosCacheReadErrorIsMiss(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	warm, err := New(Options{Workers: 1, CacheDir: dir, Sim: countingSim(&calls)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.RunOne(context.Background(), stubConfig(0)); err != nil {
		t.Fatal(err)
	}

	reg := fault.New(1).Add(fault.Rule{Site: fault.SiteCacheRead, Kind: fault.KindError, Limit: 1})
	r, err := New(Options{Workers: 1, CacheDir: dir, Faults: reg, Sim: countingSim(&calls)})
	if err != nil {
		t.Fatal(err)
	}
	jr := runJob(context.Background(), r, stubConfig(0))
	if jr.Err != nil || jr.CacheHit {
		t.Fatalf("Run under read fault = %+v, want fresh simulation", jr)
	}
	if calls.Load() != 2 {
		t.Errorf("sims = %d, want 2 (read error forced a recompute)", calls.Load())
	}
	if m := r.Metrics(); m.CorruptEntries != 0 {
		t.Errorf("CorruptEntries = %d, want 0 (I/O error is not corruption)", m.CorruptEntries)
	}
	if _, corrupt, _ := scanCacheFiles(t, dir); len(corrupt) != 0 {
		t.Errorf("read error quarantined files: %v", corrupt)
	}
}

// TestChaosCacheWriteErrorDoesNotFailJob: the result is good even if
// checkpointing it fails; the job succeeds, the dropped write is
// counted, and a later run recomputes.
func TestChaosCacheWriteErrorDoesNotFailJob(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	reg := fault.New(1).Add(fault.Rule{Site: fault.SiteCacheWrite, Kind: fault.KindError, Limit: 1})
	r, err := New(Options{Workers: 1, CacheDir: dir, Faults: reg, Sim: countingSim(&calls)})
	if err != nil {
		t.Fatal(err)
	}
	jr := runJob(context.Background(), r, stubConfig(0))
	if jr.Err != nil {
		t.Fatalf("job failed on a cache-write error: %v", jr.Err)
	}
	if n, err := r.store.(*Cache).Len(); err != nil || n != 0 {
		t.Errorf("cache Len = %d (%v), want 0 (write was rejected)", n, err)
	}
	if m := r.Metrics(); m.StoreWriteErrors != 1 {
		t.Errorf("StoreWriteErrors = %d, want 1", m.StoreWriteErrors)
	}
}

// TestRetryableClassification pins which errors consume retries.
func TestRetryableClassification(t *testing.T) {
	retryable := []error{
		errors.New("flaky infrastructure"),
		fmt.Errorf("wrapped: %w", fault.ErrInjected),
	}
	fatal := []error{
		nil,
		context.Canceled,
		context.DeadlineExceeded,
		sim.ErrAborted,
		fmt.Errorf("runner: gcc: %w", sim.ErrBudget),
		fmt.Errorf("%w: unknown benchmark", sim.ErrInvalidConfig),
		// An invariant violation is deterministic — retrying replays the
		// identical broken machine.
		fmt.Errorf("%w: cycle 42: rob retired out of order", sim.ErrCheckFailed),
	}
	for _, err := range retryable {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
	}
	for _, err := range fatal {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}

// TestFatalErrorSkipsRetries: a budget-class failure is not retried
// even with retries configured — the same deterministic failure would
// just recur.
func TestFatalErrorSkipsRetries(t *testing.T) {
	var calls atomic.Int64
	r := newTest(t, Options{Workers: 1, Retries: 3})
	r.sim = func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{}, fmt.Errorf("attempt: %w", sim.ErrBudget)
	}
	jr := runJob(context.Background(), r, stubConfig(0))
	if jr.Err == nil || !errors.Is(jr.Err, sim.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget surfaced", jr.Err)
	}
	if calls.Load() != 1 || jr.Attempts != 1 {
		t.Errorf("fatal error consumed %d attempts (%d calls), want exactly 1", jr.Attempts, calls.Load())
	}
	if m := r.Metrics(); m.Retries != 0 {
		t.Errorf("Retries = %d, want 0", m.Retries)
	}
}

// TestBackoffBetweenRetries: retries wait out an exponential backoff
// (with jitter, the first two gaps total at least half the nominal
// 20ms+40ms), and a cancelled context cuts the wait short.
func TestBackoffBetweenRetries(t *testing.T) {
	var calls atomic.Int64
	r, err := New(Options{Workers: 1, Retries: 2, RetryBackoff: 20 * time.Millisecond,
		Sim: func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
			calls.Add(1)
			return sim.Result{}, errors.New("transient")
		}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	jr := runJob(context.Background(), r, stubConfig(0))
	elapsed := time.Since(start)
	if jr.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", jr.Attempts)
	}
	if min := 30 * time.Millisecond; elapsed < min {
		t.Errorf("3 attempts finished in %v, want >= %v of backoff", elapsed, min)
	}

	// Cancellation during backoff returns promptly with ctx's error.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	slow, err := New(Options{Workers: 1, Retries: 5, RetryBackoff: 10 * time.Second,
		Sim: func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
			return sim.Result{}, errors.New("transient")
		}})
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	jr = runJob(ctx, slow, stubConfig(1))
	if !errors.Is(jr.Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", jr.Err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("cancelled backoff still waited %v", waited)
	}
}

// TestCrashSafetyResumeFromCache is the crash-safety satellite: a
// cached sweep hard-cancelled mid-flight leaves no partial or corrupt
// files, and a re-run resumes from cache, simulating only the points
// the first run never completed.
func TestCrashSafetyResumeFromCache(t *testing.T) {
	dir := t.TempDir()
	const n = 12
	cfgs := stubConfigs(n)

	var firstCalls atomic.Int64
	cancelAt := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-cancelAt
		cancel() // hard-cancel while jobs are still being dispatched
	}()
	first, err := New(Options{Workers: 2, CacheDir: dir,
		Sim: func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
			if firstCalls.Add(1) == 4 {
				close(cancelAt)
			}
			time.Sleep(time.Millisecond)
			return stubSim(ctx, cfg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	rs, runErr := first.Run(ctx, cfgs)
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", runErr)
	}
	completed := 0
	for _, jr := range rs {
		if jr.Err == nil {
			completed++
		}
	}
	if completed == 0 || completed == n {
		t.Fatalf("cancel landed uselessly: %d/%d completed; the test needs a mid-flight cut", completed, n)
	}

	// No partial/corrupt state on disk, and every completed point is
	// checkpointed.
	entries, corrupt, tmp := scanCacheFiles(t, dir)
	if len(tmp) != 0 || len(corrupt) != 0 {
		t.Fatalf("cancelled run left tmp=%v corrupt=%v", tmp, corrupt)
	}
	if len(entries) < completed {
		t.Errorf("%d completed points but only %d cache entries", completed, len(entries))
	}

	// Re-run: cached points load, the rest simulate; everything lands.
	var secondCalls atomic.Int64
	second, err := New(Options{Workers: 2, CacheDir: dir, Sim: countingSim(&secondCalls)})
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := second.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range rs2 {
		if jr.Err != nil {
			t.Errorf("resumed job %d: %v", i, jr.Err)
		}
		if jr.Result.IPC != float64(i+1) {
			t.Errorf("resumed job %d: IPC = %v, want %v", i, jr.Result.IPC, float64(i+1))
		}
	}
	if got, max := int(secondCalls.Load()), n-len(entries); got > max {
		t.Errorf("resume re-simulated %d points, want <= %d (the uncached ones)", got, max)
	}
	if m := second.Metrics(); m.CacheHits != len(entries) {
		t.Errorf("resume CacheHits = %d, want %d", m.CacheHits, len(entries))
	}
}

// TestChaosPanicInjection: an injected panic at the sim site is
// recovered, retried (panics are retryable), and the job succeeds on
// the retry.
func TestChaosPanicInjection(t *testing.T) {
	reg := fault.New(1).Add(fault.Rule{Site: fault.SiteSimRun, Kind: fault.KindPanic, Limit: 1})
	var calls atomic.Int64
	r, err := New(Options{Workers: 1, Retries: 1, RetryBackoff: -1, Faults: reg,
		Sim: func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
			calls.Add(1)
			if err := reg.Fire(ctx, fault.SiteSimRun); err != nil {
				return sim.Result{}, err
			}
			return stubSim(ctx, cfg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	jr := runJob(context.Background(), r, stubConfig(0))
	if jr.Err != nil {
		t.Fatalf("job failed despite retry: %v", jr.Err)
	}
	if jr.Attempts != 2 || calls.Load() != 2 {
		t.Errorf("attempts = %d (calls %d), want panic on 1st, success on 2nd", jr.Attempts, calls.Load())
	}
	if m := r.Metrics(); m.Retries != 1 || m.Errors != 0 {
		t.Errorf("metrics = %+v, want Retries 1, Errors 0", m)
	}
}
