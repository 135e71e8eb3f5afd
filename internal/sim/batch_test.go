package sim

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// batchOrgs are the three cache organizations the identity tests sweep:
// ideal multi-porting, banking, and a line-buffered organization. All
// share one 32K geometry, so they also exercise warm-state sharing
// (one functional prewarm replay, copied to the other two lanes).
func batchOrgs() []mem.SystemConfig {
	return []mem.SystemConfig{
		mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
	}
}

func batchTestConfig(bench string, memory mem.SystemConfig) Config {
	return Config{
		Benchmark:    bench,
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       memory,
		PrewarmInsts: 30_000,
		WarmupInsts:  2_000,
		MeasureInsts: 10_000,
	}
}

// requireIdentical fails unless the batched result matches the single
// run exactly, including the differential stream hash.
func requireIdentical(t *testing.T, label string, single, batched Result) {
	t.Helper()
	if single != batched {
		t.Errorf("%s: batched result diverges from single run:\nsingle:  %+v\nbatched: %+v", label, single, batched)
	}
	if single.StreamHash == 0 {
		t.Errorf("%s: single run reported no stream hash; identity not witnessed", label)
	}
}

// goldenCorpus loads the repository's golden result corpus
// (testdata/golden/results.sha256, regenerated by the root package's
// TestGolden): label -> [result digest, config digest].
var goldenCorpus = sync.OnceValues(func() (map[string][2]string, error) {
	f, err := os.Open("../../testdata/golden/results.sha256")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	corpus := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 3 {
			corpus[fields[2]] = [2]string{fields[0], fields[1]}
		}
	}
	return corpus, sc.Err()
})

func sha256Hex(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// requireGolden fails unless got — a Result produced under
// RunOpts{Hash: true} for cfg, by any lane form — is the corpus
// entry recorded under label, stream hash included. cfg must be the
// exact config the corpus recorded (for a trace replay, the live
// config the trace was recorded from).
func requireGolden(t *testing.T, label string, cfg Config, got Result) {
	t.Helper()
	corpus, err := goldenCorpus()
	if err != nil {
		t.Fatalf("golden corpus: %v", err)
	}
	want, ok := corpus[label]
	if !ok {
		t.Fatalf("%s: not in the golden corpus", label)
	}
	if sha256Hex(cfg.WithDefaults()) != want[1] {
		t.Fatalf("%s: config differs from the one the golden corpus recorded", label)
	}
	if got.StreamHash == 0 {
		t.Errorf("%s: no stream hash; identity not witnessed", label)
	}
	if sha256Hex(got) != want[0] {
		t.Errorf("%s: result diverges from the golden corpus: %+v", label, got)
	}
}

// TestBatchBitIdentityAcrossWorkloads pins RunBatch's contract: for
// every workload and organization the batched result is the golden
// corpus's — same stats and same FNV stream hash — both when the
// batch holds one workload's organizations (shared stream, shared
// prewarm) and when all 27 points run in a single mixed batch.
func TestBatchBitIdentityAcrossWorkloads(t *testing.T) {
	opts := RunOpts{Hash: true}
	ctx := context.Background()
	var allCfgs []Config
	var allLabels []string
	for _, bench := range workload.BenchmarkNames() {
		cfgs := make([]Config, 0, 3)
		for i, org := range batchOrgs() {
			cfgs = append(cfgs, batchTestConfig(bench, org))
			allLabels = append(allLabels, fmt.Sprintf("batch/%s/%d", bench, i))
		}
		results, errs := RunBatch(ctx, cfgs, opts)
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("%s[%d]: batch lane: %v", bench, i, errs[i])
			}
			requireGolden(t, allLabels[len(allCfgs)+i], cfgs[i], results[i])
		}
		allCfgs = append(allCfgs, cfgs...)
	}

	// All workloads and organizations in one heterogeneous batch.
	results, errs := RunBatch(ctx, allCfgs, opts)
	for i := range allCfgs {
		if errs[i] != nil {
			t.Fatalf("combined lane %d (%s): %v", i, allCfgs[i].Benchmark, errs[i])
		}
		requireGolden(t, allLabels[i], allCfgs[i], results[i])
	}
}

// TestBatchBitIdentityTimingPrewarm covers the timed-prewarm path,
// where only the region sweep is shared and the prewarm itself runs
// through each lane's pipeline.
func TestBatchBitIdentityTimingPrewarm(t *testing.T) {
	var cfgs []Config
	for _, org := range batchOrgs() {
		cfg := batchTestConfig("gcc", org)
		cfg.PrewarmInsts = 8_000
		cfg.PrewarmMode = PrewarmTiming
		cfgs = append(cfgs, cfg)
	}
	results, errs := RunBatch(context.Background(), cfgs, RunOpts{Hash: true})
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("lane %d batch: %v", i, errs[i])
		}
		requireGolden(t, fmt.Sprintf("batch-timing/gcc/%d", i), cfg, results[i])
	}
}

// TestBatchRingLanesPrewarmState pins a shared ring's lanes at the
// machine-state level: after the first round of a batch on one stream
// — two cache geometries, one of them with a same-geometry follower —
// each lane's whole exported state, predictor and source cursor
// included, equals a lone cold run's after its prewarm, in both
// prewarm modes. Result identity at short windows cannot see a
// predictor that skipped training; this can.
func TestBatchRingLanesPrewarmState(t *testing.T) {
	dup := mem.PortConfig{Kind: mem.DuplicatePorts}
	for _, mode := range []PrewarmMode{PrewarmFastForward, PrewarmTiming} {
		t.Run(string(mode), func(t *testing.T) {
			cfgs := []Config{
				prewarmCacheConfig("gcc", 16<<10, dup, true, mode),
				prewarmCacheConfig("gcc", 64<<10, dup, true, mode),
				prewarmCacheConfig("gcc", 16<<10, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false, mode),
			}
			b, err := NewBatch(context.Background(), cfgs, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if !b.Step() || b.Active() != len(cfgs) {
				t.Fatalf("%d of %d lanes running after prewarm", b.Active(), len(cfgs))
			}
			for i, cfg := range cfgs {
				ln := &b.lanes[i]
				if ln.rd == nil {
					t.Fatalf("lane %d is not on a shared ring", i)
				}
				if got, want := machineState(t, ln.m), prewarmedState(t, cfg, RunOpts{}); got != want {
					t.Errorf("lane %d: machine state after the batch prewarm differs from a lone cold run's", i)
				}
			}
		})
	}
}

// TestBatchHeterogeneousBudgetAbort runs a mixed batch in which one
// lane's measured window is far too long for the shared cycle budget:
// that lane must fail with ErrBudget while every other lane completes
// bit-identically to its golden result.
func TestBatchHeterogeneousBudgetAbort(t *testing.T) {
	opts := RunOpts{Hash: true, MaxCycles: 150_000}
	cfgs := []Config{
		batchTestConfig("gcc", batchOrgs()[0]),
		batchTestConfig("li", batchOrgs()[1]),
		batchTestConfig("gcc", batchOrgs()[2]),
	}
	cfgs[2].MeasureInsts = 50_000_000 // cannot finish within MaxCycles
	results, errs := RunBatch(context.Background(), cfgs, opts)

	if errs[2] == nil {
		t.Fatalf("oversized lane completed under a %d-cycle budget: %+v", opts.MaxCycles, results[2])
	}
	if !errors.Is(errs[2], ErrBudget) {
		t.Errorf("oversized lane error = %v, want ErrBudget", errs[2])
	}
	for i, label := range []string{"batch/gcc/0", "batch/li/1"} {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		requireGolden(t, label, cfgs[i], results[i])
	}
}

// TestBatchSnapshotOptsRejected pins where snapshot options apply: a
// batch of one honors them exactly as RunContext does, while a batch
// of two or more refuses them up front with a classified
// ErrInvalidConfig instead of silently dropping the snapshot.
func TestBatchSnapshotOptsRejected(t *testing.T) {
	ctx := context.Background()
	cfg := batchTestConfig("gcc", batchOrgs()[0])
	cfgs := []Config{cfg, batchTestConfig("li", batchOrgs()[0])}
	dir := t.TempDir()
	for _, opts := range []RunOpts{
		{SnapshotPath: dir + "/s.snap", SnapshotAt: 1},
		{Resume: dir + "/missing.snap"},
		{SnapshotOnAbort: dir + "/a.snap"},
	} {
		if _, err := NewBatch(ctx, cfgs, opts); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("NewBatch with %+v: err = %v, want ErrInvalidConfig", opts, err)
		}
		_, errs := RunBatch(ctx, cfgs, opts)
		for i, err := range errs {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("RunBatch lane %d with %+v: err = %v, want ErrInvalidConfig", i, opts, err)
			}
		}
	}

	// One lane: the mid-run and abort snapshots are written, and
	// resuming the mid-run one reproduces the straight run.
	opts := RunOpts{Hash: true, SnapshotPath: dir + "/s.snap", SnapshotAt: 1}
	res, errs := RunBatch(ctx, []Config{cfg}, opts)
	if errs[0] != nil {
		t.Fatalf("batch of one with snapshot options: %v", errs[0])
	}
	requireGolden(t, "batch/gcc/0", cfg, res[0])
	abort := RunOpts{MaxCycles: 5_000, SnapshotOnAbort: dir + "/a.snap"}
	if _, errs := RunBatch(ctx, []Config{cfg}, abort); !errors.Is(errs[0], ErrBudget) {
		t.Fatalf("batch of one under a 5000-cycle budget: err = %v, want ErrBudget", errs[0])
	}
	for _, path := range []string{opts.SnapshotPath, abort.SnapshotOnAbort} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("batch of one wrote no snapshot: %v", err)
		}
	}
	resumed, errs := RunBatch(ctx, []Config{cfg}, RunOpts{Hash: true, Resume: opts.SnapshotPath})
	if errs[0] != nil {
		t.Fatalf("batch of one resuming: %v", errs[0])
	}
	requireGolden(t, "batch/gcc/0", cfg, resumed[0])
	_, errs = RunBatch(ctx, []Config{cfg}, RunOpts{Resume: dir + "/missing.snap"})
	if !errors.Is(errs[0], ErrSnapshot) {
		t.Errorf("batch of one resuming a missing snapshot: err = %v, want ErrSnapshot", errs[0])
	}
}

// TestBatchSampledLanes pins sampled lanes running inside the lockstep
// batch next to lanes of other kinds: three organizations sharing one
// stream ring, a sampled lane of the same stream, and a trace replay
// alone on its stream. Every lane must produce its golden result, and
// only the exhaustive same-stream lanes may share a ring: the sampled
// lane fast-forwards mid-measure and the trace lane has no partner, so
// both read their own source.
func TestBatchSampledLanes(t *testing.T) {
	ctx := context.Background()
	opts := RunOpts{Hash: true}
	labels := []string{"batch/gcc/0", "batch/gcc/1", "batch/gcc/2", "batch-sampled/gcc", "batch/li/0"}
	var cfgs []Config
	for _, org := range batchOrgs() {
		cfgs = append(cfgs, batchTestConfig("gcc", org))
	}
	sampled := batchTestConfig("gcc", batchOrgs()[0])
	sampled.MeasureInsts = 60_000
	sampled.Sample = &SampleSpec{IntervalInsts: 20_000, WindowInsts: 4_000, WarmupInsts: 1_000}
	live := batchTestConfig("li", batchOrgs()[0])
	cfgs = append(cfgs, sampled, traceFor(t, t.TempDir(), live))

	b, err := NewBatch(ctx, cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if len(b.streams) != 1 || len(b.streams[0].lanes) != 3 {
		t.Fatalf("%d shared streams, want one ring for the three exhaustive gcc lanes", len(b.streams))
	}
	for i := 3; i < len(cfgs); i++ {
		if b.lanes[i].rd != nil {
			t.Errorf("lane %d (%s) reads a shared ring, want its own source", i, labels[i])
		}
	}
	for b.Step() {
	}
	results, errs := b.Results()
	for i, label := range labels {
		if errs[i] != nil {
			t.Fatalf("lane %d (%s): %v", i, label, errs[i])
		}
		want := cfgs[i]
		if i == len(cfgs)-1 {
			want = live
		}
		requireGolden(t, label, want, results[i])
	}
	if results[3].Sampled == nil {
		t.Error("sampled lane lost its sampling summary")
	}
}

// TestBatchInvalidLaneIsolated: a broken config must fail its own lane
// only; siblings still produce their golden results.
func TestBatchInvalidLaneIsolated(t *testing.T) {
	good := batchTestConfig("gcc", batchOrgs()[0])
	bad := batchTestConfig("no-such-benchmark", batchOrgs()[0])
	badMem := batchTestConfig("li", batchOrgs()[0])
	badMem.Memory.L1.Bytes = 12345 // not a power-of-two geometry
	badSample := good
	badSample.Sample = &SampleSpec{IntervalInsts: 1_000}

	results, errs := RunBatch(context.Background(), []Config{bad, good, badMem, badSample}, RunOpts{Hash: true})
	for _, i := range []int{0, 2, 3} {
		if !errors.Is(errs[i], ErrInvalidConfig) {
			t.Errorf("lane %d: err = %v, want ErrInvalidConfig", i, errs[i])
		}
	}
	if errs[1] != nil {
		t.Fatalf("good lane: %v", errs[1])
	}
	requireGolden(t, "batch/gcc/0", good, results[1])
}

// TestBatchCancelledContext: a cancelled caller context aborts every
// lane with ErrAborted, and the watcher goroutine is reaped.
func TestBatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{baseConfig("gcc"), baseConfig("li")}
	_, errs := RunBatch(ctx, cfgs, RunOpts{})
	for i, err := range errs {
		if !errors.Is(err, ErrAborted) {
			t.Errorf("lane %d: err = %v, want ErrAborted", i, err)
		}
	}
}

// TestBatchEmpty: a zero-config batch completes immediately.
func TestBatchEmpty(t *testing.T) {
	results, errs := RunBatch(context.Background(), nil, RunOpts{})
	if len(results) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d results, %d errors", len(results), len(errs))
	}
}

// TestBatchRingGrowth forces many ring refills and compactions with a
// long measured window on two lanes sharing one stream, then checks
// both against runs that read their own source.
func TestBatchRingGrowth(t *testing.T) {
	opts := RunOpts{Hash: true}
	ctx := context.Background()
	var cfgs []Config
	for _, org := range batchOrgs()[:2] {
		cfg := batchTestConfig("database", org)
		cfg.MeasureInsts = 120_000
		cfgs = append(cfgs, cfg)
	}
	results, errs := RunBatch(ctx, cfgs, opts)
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		single, err := RunContext(ctx, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "long", single, results[i])
	}
}
