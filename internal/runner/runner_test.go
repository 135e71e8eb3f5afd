package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
)

// stubConfig builds a distinct, valid config per index so stub sim
// functions can derive deterministic results from it.
func stubConfig(i int) sim.Config {
	return sim.Config{
		Benchmark:    "gcc",
		Seed:         uint64(i + 1),
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		MeasureInsts: 1000,
	}
}

func stubConfigs(n int) []sim.Config {
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		cfgs[i] = stubConfig(i)
	}
	return cfgs
}

// stubSim returns a result derived only from the config, so any
// execution order must produce the same output.
func stubSim(_ context.Context, cfg sim.Config) (sim.Result, error) {
	return sim.Result{Benchmark: cfg.Benchmark, Cycles: cfg.Seed * 10, IPC: float64(cfg.Seed)}, nil
}

func newTest(t *testing.T, opts Options) *Runner {
	t.Helper()
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = -1 // keep retry tests fast
	}
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	r.sim = stubSim
	r.prewarm = nil // a substituted simulator bypasses the prewarm cache, as with Options.Sim
	return r
}

func TestRunOrderedAcrossWorkerCounts(t *testing.T) {
	cfgs := stubConfigs(32)
	var want []JobResult
	for _, workers := range []int{1, 4, 16} {
		r := newTest(t, Options{Workers: workers})
		// Jitter completion order so ordering bugs cannot hide behind a
		// fast deterministic stub.
		r.sim = func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
			time.Sleep(time.Duration(cfg.Seed%5) * time.Millisecond)
			return stubSim(ctx, cfg)
		}
		got, err := r.Run(context.Background(), cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, jr := range got {
			if jr.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, jr.Err)
			}
			if jr.Result.IPC != float64(i+1) {
				t.Errorf("workers=%d job %d: IPC = %v, want %v (out of order?)", workers, i, jr.Result.IPC, i+1)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i].Result != want[i].Result {
				t.Errorf("workers=%d job %d: result differs from workers=1", workers, i)
			}
		}
	}
}

func TestRealSimParallelMatchesSerial(t *testing.T) {
	small := func(bench string, hit int) sim.Config {
		return sim.Config{
			Benchmark:    bench,
			Seed:         1,
			CPU:          cpu.DefaultConfig(),
			Memory:       mem.DefaultSRAMSystem(8<<10, hit, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
			PrewarmInsts: 2000,
			WarmupInsts:  500,
			MeasureInsts: 3000,
		}
	}
	cfgs := []sim.Config{small("gcc", 1), small("tomcatv", 1), small("gcc", 2), small("compress", 1)}

	serial, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	rs1, err := serial.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	rs8, err := parallel.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if rs1[i].Err != nil || rs8[i].Err != nil {
			t.Fatalf("job %d errs: %v / %v", i, rs1[i].Err, rs8[i].Err)
		}
		if rs1[i].Result != rs8[i].Result {
			t.Errorf("job %d: serial and parallel results differ:\n  -j1: %+v\n  -j8: %+v", i, rs1[i].Result, rs8[i].Result)
		}
	}
}

func TestMemoDedupWithinBatch(t *testing.T) {
	var calls atomic.Int64
	r := newTest(t, Options{Workers: 4})
	r.sim = func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		time.Sleep(2 * time.Millisecond)
		return stubSim(ctx, cfg)
	}
	cfgs := make([]sim.Config, 12)
	for i := range cfgs {
		cfgs[i] = stubConfig(i % 3) // each distinct point appears 4 times
	}
	rs, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range rs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if want := float64(i%3 + 1); jr.Result.IPC != want {
			t.Errorf("job %d: IPC = %v, want %v", i, jr.Result.IPC, want)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("simulator ran %d times, want 3 (memo dedup)", got)
	}
	m := r.Metrics()
	if m.Simulated != 3 || m.MemoHits != 9 || m.Done != 12 {
		t.Errorf("metrics = %+v, want Simulated 3, MemoHits 9, Done 12", m)
	}
}

func TestMemoDedupAcrossBatches(t *testing.T) {
	var calls atomic.Int64
	r := newTest(t, Options{Workers: 2})
	r.sim = func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubSim(ctx, cfg)
	}
	cfgs := stubConfigs(4)
	if _, err := r.Run(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("simulator ran %d times across two identical batches, want 4", got)
	}
}

func TestDiskCacheAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	count := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubSim(ctx, cfg)
	}
	cfgs := stubConfigs(5)

	first := newTest(t, Options{Workers: 2, CacheDir: dir})
	first.sim = count
	rs, err := first.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Fatalf("first run simulated %d, want 5", calls.Load())
	}

	second := newTest(t, Options{Workers: 2, CacheDir: dir})
	second.sim = count
	rs2, err := second.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Errorf("second run re-simulated (%d total calls), want cache hits", calls.Load())
	}
	m := second.Metrics()
	if m.CacheHits != 5 {
		t.Errorf("second run CacheHits = %d, want 5", m.CacheHits)
	}
	for i := range rs {
		if !rs2[i].CacheHit {
			t.Errorf("job %d: CacheHit = false on second run", i)
		}
		if rs[i].Result != rs2[i].Result {
			t.Errorf("job %d: cached result differs from simulated", i)
		}
	}
}

func TestPanicRecovered(t *testing.T) {
	r := newTest(t, Options{Workers: 2})
	r.sim = func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		if cfg.Seed == 2 {
			panic("bad design point")
		}
		return stubSim(ctx, cfg)
	}
	rs, err := r.Run(context.Background(), stubConfigs(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range rs {
		if i == 1 {
			if jr.Err == nil || !strings.Contains(jr.Err.Error(), "panicked") {
				t.Errorf("job 1: err = %v, want simulation panic surfaced", jr.Err)
			}
			continue
		}
		if jr.Err != nil {
			t.Errorf("job %d: %v (panic should not poison siblings)", i, jr.Err)
		}
	}
	if m := r.Metrics(); m.Errors != 1 {
		t.Errorf("Errors = %d, want 1", m.Errors)
	}
}

func TestBoundedRetry(t *testing.T) {
	var mu sync.Mutex
	failuresLeft := map[uint64]int{1: 2, 2: 5}
	r := newTest(t, Options{Workers: 1, Retries: 2})
	r.sim = func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		mu.Lock()
		defer mu.Unlock()
		if failuresLeft[cfg.Seed] > 0 {
			failuresLeft[cfg.Seed]--
			return sim.Result{}, fmt.Errorf("transient %d", cfg.Seed)
		}
		return stubSim(ctx, cfg)
	}
	rs, err := r.Run(context.Background(), stubConfigs(2))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != nil || rs[0].Attempts != 3 {
		t.Errorf("job 0: err=%v attempts=%d, want success on third attempt", rs[0].Err, rs[0].Attempts)
	}
	if rs[1].Err == nil || rs[1].Attempts != 3 {
		t.Errorf("job 1: err=%v attempts=%d, want failure after retries exhausted", rs[1].Err, rs[1].Attempts)
	}
	if m := r.Metrics(); m.Retries != 4 {
		t.Errorf("Retries = %d, want 4", m.Retries)
	}
}

func TestCancellationDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := newTest(t, Options{Workers: 1})
	r.sim = func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		if cfg.Seed == 1 {
			cancel() // cancel while the first job is in flight
		}
		return stubSim(ctx, cfg)
	}
	rs, err := r.Run(ctx, stubConfigs(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if rs[0].Err != nil {
		t.Errorf("job 0 completed before cancel but has err %v", rs[0].Err)
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(rs[i].Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, rs[i].Err)
		}
	}
	if m := r.Metrics(); m.Done != 3 {
		t.Errorf("Done = %d, want every slot accounted for", m.Done)
	}
}

func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var snaps []Metrics
	r, err := New(Options{Workers: 3, OnProgress: func(m Metrics) {
		mu.Lock()
		snaps = append(snaps, m)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.sim = stubSim
	if _, err := r.Run(context.Background(), stubConfigs(7)); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 7 {
		t.Fatalf("progress fired %d times, want 7", len(snaps))
	}
	for i, m := range snaps {
		if m.Done != i+1 {
			t.Errorf("snapshot %d: Done = %d, want %d (monotonic)", i, m.Done, i+1)
		}
		if m.Submitted != 7 {
			t.Errorf("snapshot %d: Submitted = %d, want 7", i, m.Submitted)
		}
	}
}

func TestRunOneAndResults(t *testing.T) {
	r := newTest(t, Options{Workers: 2})
	res, err := r.RunOne(context.Background(), stubConfig(0))
	if err != nil || res.IPC != 1 {
		t.Fatalf("RunOne = %+v, %v", res, err)
	}

	boom := errors.New("boom")
	jrs := []JobResult{{Result: sim.Result{IPC: 1}}, {Err: boom}}
	if _, err := Results(jrs); !errors.Is(err, boom) {
		t.Errorf("Results err = %v, want boom", err)
	}
	ok, err := Results(jrs[:1])
	if err != nil || len(ok) != 1 || ok[0].IPC != 1 {
		t.Errorf("Results = %v, %v", ok, err)
	}
}

func TestParallelHelper(t *testing.T) {
	out := make([]int, 50)
	err := Parallel(context.Background(), 8, len(out), func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}

	boom := errors.New("boom")
	var ran atomic.Int64
	err = Parallel(context.Background(), 2, 100, func(i int) error {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Parallel err = %v, want boom", err)
	}
	if n := ran.Load(); n == 100 {
		t.Errorf("error did not stop dispatch (all %d jobs ran)", n)
	}
}

// TestAddListener verifies the hook API the HTTP service subscribes to:
// snapshots arrive serialized in non-decreasing Done order, alongside
// (not instead of) OnProgress, and removal stops delivery.
func TestAddListener(t *testing.T) {
	var onProgress atomic.Int64
	r := newTest(t, Options{Workers: 8, OnProgress: func(Metrics) { onProgress.Add(1) }})

	var mu sync.Mutex
	var seen []int
	remove := r.AddListener(func(m Metrics) {
		mu.Lock()
		seen = append(seen, m.Done)
		mu.Unlock()
	})

	if _, err := r.Run(context.Background(), stubConfigs(16)); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	got := append([]int(nil), seen...)
	mu.Unlock()
	if len(got) != 16 {
		t.Fatalf("listener saw %d snapshots, want 16", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("snapshots out of order: Done went %d -> %d", got[i-1], got[i])
		}
	}
	if got[len(got)-1] != 16 {
		t.Errorf("final snapshot Done = %d, want 16", got[len(got)-1])
	}
	if onProgress.Load() != 16 {
		t.Errorf("OnProgress fired %d times, want 16", onProgress.Load())
	}

	remove()
	if _, err := r.RunOne(context.Background(), stubConfig(99)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	after := len(seen)
	mu.Unlock()
	if after != 16 {
		t.Errorf("removed listener still saw %d snapshots, want 16", after)
	}
}

// TestRunJobProvenance checks the exported single-job API reports
// cache/memo provenance the way Run's batch results do.
func TestRunJobProvenance(t *testing.T) {
	var sims atomic.Int64
	r, err := New(Options{Workers: 2, CacheDir: t.TempDir(), Sim: func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		sims.Add(1)
		return stubSim(ctx, cfg)
	}})
	if err != nil {
		t.Fatal(err)
	}

	jr := r.RunJob(context.Background(), stubConfig(1))
	if jr.Err != nil || jr.CacheHit || jr.MemoHit || jr.Attempts != 1 {
		t.Fatalf("first RunJob = %+v, want one fresh simulation", jr)
	}

	// Same process, same config: the memo answers.
	jr = r.RunJob(context.Background(), stubConfig(1))
	if jr.Err != nil || !jr.MemoHit {
		t.Fatalf("second RunJob = %+v, want memo hit", jr)
	}

	// A new runner over the same cache dir: the disk answers.
	r2, err := New(Options{Workers: 2, CacheDir: r.store.(*Cache).dir, Sim: func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		t.Error("disk-cached job re-simulated")
		return stubSim(ctx, cfg)
	}})
	if err != nil {
		t.Fatal(err)
	}
	jr = r2.RunJob(context.Background(), stubConfig(1))
	if jr.Err != nil || !jr.CacheHit {
		t.Fatalf("RunJob on fresh runner = %+v, want disk cache hit", jr)
	}
	if sims.Load() != 1 {
		t.Errorf("simulated %d times across runners, want 1", sims.Load())
	}
}
