package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/fault"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
)

// realConfig builds a small real simulation config; index varies the
// organization so a batch holds shareable but distinct lanes.
func realConfig(i int) sim.Config {
	orgs := []mem.SystemConfig{
		mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		mem.DefaultSRAMSystem(16<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false),
	}
	benches := []string{"gcc", "li", "tomcatv"}
	return sim.Config{
		Benchmark:    benches[i%len(benches)],
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       orgs[i%len(orgs)],
		PrewarmInsts: 20_000,
		WarmupInsts:  2_000,
		MeasureInsts: 6_000,
	}
}

func realConfigs(n int) []sim.Config {
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		cfgs[i] = realConfig(i)
	}
	return cfgs
}

// TestBatchedRunMatchesSingle pins lockstep batching's contract:
// identical results, in submission order, as batches of one — at
// several batch sizes, including batches that do not divide
// the job count, and with a sampled config stepping among the lanes.
func TestBatchedRunMatchesSingle(t *testing.T) {
	sampled := realConfig(0)
	sampled.Sample = &sim.SampleSpec{IntervalInsts: 3_000, WindowInsts: 500, WarmupInsts: 500}
	cfgs := append(realConfigs(10), sampled)
	single, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{2, 4, 16} {
		r, err := New(Options{Workers: 2, BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		if r.BatchSize() != batch {
			t.Fatalf("BatchSize() = %d, want %d", r.BatchSize(), batch)
		}
		got, err := r.Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if got[i].Err != nil {
				t.Fatalf("batch=%d job %d: %v", batch, i, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].Result, want[i].Result) {
				t.Errorf("batch=%d job %d: result diverges from batches of one:\nbatched: %+v\nsingle:  %+v",
					batch, i, got[i].Result, want[i].Result)
			}
		}
		m := r.Metrics()
		if m.Simulated != len(cfgs) || m.Done != len(cfgs) {
			t.Errorf("batch=%d: metrics = %+v, want %d simulated/done", batch, m, len(cfgs))
		}
		if m.PrewarmHits+m.PrewarmMisses != 0 {
			t.Errorf("batch=%d: %d prewarm hits, %d misses; lockstep lanes must not touch the prefix cache", batch, m.PrewarmHits, m.PrewarmMisses)
		}
	}
}

// TestBatchedRunDedupAndCache: duplicates within one batched Run memo
// to a single execution, and a second Run over a shared store is
// served entirely from cache.
func TestBatchedRunDedupAndCache(t *testing.T) {
	base := realConfigs(4)
	cfgs := append(append([]sim.Config{}, base...), base...) // every config twice
	store := NewMemStore()
	r, err := New(Options{Workers: 2, BatchSize: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	jrs, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range jrs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if jr.Result != jrs[i%len(base)].Result {
			t.Errorf("duplicate %d diverges from its original", i)
		}
	}
	m := r.Metrics()
	if m.Simulated != len(base) {
		t.Errorf("Simulated = %d, want %d (duplicates must memo)", m.Simulated, len(base))
	}
	if m.MemoHits != len(base) {
		t.Errorf("MemoHits = %d, want %d", m.MemoHits, len(base))
	}

	r2, err := New(Options{Workers: 2, BatchSize: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	jrs2, err := r2.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range jrs2 {
		if jr.Err != nil || !jr.CacheHit {
			t.Errorf("job %d: err=%v cacheHit=%v, want cached", i, jr.Err, jr.CacheHit)
		}
		if jr.Result != jrs[i].Result {
			t.Errorf("cached job %d diverges", i)
		}
	}
	if m2 := r2.Metrics(); m2.Simulated != 0 || m2.CacheHits != len(base) {
		t.Errorf("second runner metrics = %+v, want all cache hits", m2)
	}
}

// TestBatchedRetryFallback: an injected one-shot failure at the batch's
// fault site fails every lane of the first batch attempt; each lane
// must then be retried as a batch of one and succeed within the retry
// budget.
func TestBatchedRetryFallback(t *testing.T) {
	reg := fault.New(1).Add(fault.Rule{Site: fault.SiteSimRun, Kind: fault.KindError, Limit: 1})
	r, err := New(Options{Workers: 1, BatchSize: 4, Retries: 2, RetryBackoff: -1, Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := realConfigs(3)
	jrs, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for i, jr := range jrs {
		if jr.Err != nil {
			t.Fatalf("job %d did not recover: %v", i, jr.Err)
		}
		if jr.Attempts > 1 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Error("no job recorded a retry; the injected fault never hit the batch path")
	}
	if m := r.Metrics(); m.Retries == 0 {
		t.Errorf("metrics recorded no retries: %+v", m)
	}
}

// TestBatchedSnapshotDirWins pins the one interaction left between
// abort snapshots and batching: with SnapshotDir set, batching is off
// (an abort snapshot is one run's state), while the batches of one
// still share their stream's prewarm through the prewarm cache and
// produce exactly the results of a runner without a snapshot
// directory.
func TestBatchedSnapshotDirWins(t *testing.T) {
	r, err := New(Options{Workers: 1, BatchSize: 8, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchSize() != 1 {
		t.Fatalf("BatchSize() = %d with SnapshotDir set, want 1 (snapshot path wins)", r.BatchSize())
	}
	plain, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.runOpts.Hash, plain.runOpts.Hash = true, true
	// One stream, one cache geometry, three timing organizations: the
	// first fills the warm slot and the other two apply it.
	a := realConfig(0)
	b := realConfig(0)
	b.Memory.L1.HitCycles = 3
	c := realConfig(0)
	c.Memory.L1.Ports = mem.PortConfig{Kind: mem.BankedPorts, Count: 8}
	cfgs := []sim.Config{a, b, c}
	jrs, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range jrs {
		if jr.Err != nil || want[i].Err != nil {
			t.Fatalf("job %d: %v / %v", i, jr.Err, want[i].Err)
		}
		got, _ := json.Marshal(jr.Result)
		exp, _ := json.Marshal(want[i].Result)
		if jr.Result.StreamHash == 0 || !bytes.Equal(got, exp) {
			t.Errorf("job %d: SnapshotDir result differs from a plain runner's:\n got %s\nwant %s", i, got, exp)
		}
	}
	if m := r.Metrics(); m.PrewarmHits != 2 || m.PrewarmWarmApplies != 2 {
		t.Errorf("SnapshotDir runner: %d prewarm hits, %d warm applies; want 2 and 2", m.PrewarmHits, m.PrewarmWarmApplies)
	}
	// And a custom Sim likewise forces batches of one.
	rs, err := New(Options{BatchSize: 8, Sim: stubSim})
	if err != nil {
		t.Fatal(err)
	}
	if rs.BatchSize() != 1 {
		t.Errorf("BatchSize() = %d with Sim set, want 1", rs.BatchSize())
	}
}

// TestBatchedCancellation: a cancelled context settles every slot with
// an error and leaves no memo waiter hanging.
func TestBatchedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := New(Options{Workers: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := realConfigs(6)
	jrs, runErr := r.Run(ctx, cfgs)
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", runErr)
	}
	for i, jr := range jrs {
		if jr.Err == nil {
			t.Errorf("job %d has no error after cancellation", i)
		}
	}
	if m := r.Metrics(); m.Done != len(cfgs) {
		t.Errorf("Done = %d, want %d (every slot settled)", m.Done, len(cfgs))
	}
}

// TestRunWallFromWorkerPickup pins JobResult.Wall's definition: a
// lane's Wall runs from when a pool worker takes its batch, not from
// Run entry, so the second of two sequential batches does not count
// the time it queued behind the first. The delay fault fires once per
// sim.NewBatch, so each batch costs at least one delay.
func TestRunWallFromWorkerPickup(t *testing.T) {
	const delay = 100 * time.Millisecond
	reg := fault.New(1).Add(fault.Rule{Site: fault.SiteSimRun, Kind: fault.KindDelay, Delay: delay})
	r, err := New(Options{Workers: 1, BatchSize: 2, Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := realConfigs(4)
	for i := range cfgs {
		cfgs[i].Benchmark = "gcc" // one stream: two batches of two
	}
	start := time.Now()
	jrs, err := r.Run(context.Background(), cfgs)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range jrs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if jr.Wall < delay || jr.Wall >= elapsed-delay {
			t.Errorf("job %d: Wall = %v, want in [%v, %v) (its own batch only, Run took %v)", i, jr.Wall, delay, elapsed-delay, elapsed)
		}
	}
}

// TestSimWallCountsBatchOnce: a lockstep batch's wall is charged to
// SimWall once, not once per lane, so on a one-worker runner SimWall
// never exceeds the runner's lifetime.
func TestSimWallCountsBatchOnce(t *testing.T) {
	cfgs := realConfigs(4)
	for i := range cfgs {
		cfgs[i].Benchmark = "gcc"
	}
	r, err := New(Options{Workers: 1, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.Simulated != len(cfgs) {
		t.Fatalf("simulated %d, want %d", m.Simulated, len(cfgs))
	}
	if m.SimWall <= 0 || m.SimWall > m.Elapsed {
		t.Errorf("SimWall %v outside (0, Elapsed %v]", m.SimWall, m.Elapsed)
	}
}
