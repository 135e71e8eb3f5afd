package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hbcache/internal/durable"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// traceFor records cfg's stream to a file in dir and returns cfg
// rewritten to replay it (path + pinned digest) — the hbtrace -record
// flow in miniature.
func traceFor(t *testing.T, dir string, cfg Config) Config {
	t.Helper()
	data, err := RecordTrace(cfg, 0)
	if err != nil {
		t.Fatalf("RecordTrace: %v", err)
	}
	path := filepath.Join(dir, cfg.Benchmark+".trace")
	if err := durable.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	digest, err := workload.TraceFileDigest(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &TraceRef{Path: path, Digest: digest}
	return cfg
}

// TestTraceReplayBitIdentical is the tentpole's conformance matrix: for
// every workload and cache organization, a run replayed from a recorded
// trace must reproduce the live-generator run bit-identically — every
// Result field including the FNV hash over the retired instruction
// stream. In -short mode one workload per organization stands in for
// the full cross.
func TestTraceReplayBitIdentical(t *testing.T) {
	benches := workload.BenchmarkNames()
	if testing.Short() {
		benches = benches[:1]
	}
	dir := t.TempDir()
	for _, org := range resumeOrgs {
		for _, bench := range benches {
			t.Run(org.name+"/"+bench, func(t *testing.T) {
				cfg := resumeConfig(bench, org.ports, org.lb)
				live, err := RunContext(context.Background(), cfg, RunOpts{Hash: true})
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := RunContext(context.Background(), traceFor(t, dir, cfg), RunOpts{Hash: true})
				if err != nil {
					t.Fatal(err)
				}
				if live.StreamHash == 0 {
					t.Fatal("live run reported no stream hash")
				}
				if !reflect.DeepEqual(live, replayed) {
					t.Fatalf("trace replay diverged from live run:\nlive:     %+v\nreplayed: %+v", live, replayed)
				}
			})
		}
	}
}

// TestTraceReplayAcrossPrewarmModes pins replay identity through both
// prewarm paths: functional fast-forward and full timing prewarm
// consume the recorded stream exactly as they consume the live one.
func TestTraceReplayAcrossPrewarmModes(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []PrewarmMode{PrewarmFastForward, PrewarmTiming} {
		t.Run(string(mode), func(t *testing.T) {
			cfg := resumeConfig("gcc", mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false)
			cfg.PrewarmMode = mode
			if mode == PrewarmTiming && testing.Short() {
				t.Skip("timing prewarm is slow")
			}
			live, err := RunContext(context.Background(), cfg, RunOpts{Hash: true})
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := RunContext(context.Background(), traceFor(t, dir, cfg), RunOpts{Hash: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live, replayed) {
				t.Fatalf("mode %s: trace replay diverged:\nlive:     %+v\nreplayed: %+v", mode, live, replayed)
			}
		})
	}
}

// TestTraceReplayBatchLanes pins the batch kernel on traces: lanes
// sharing one trace-backed stream ring must reproduce the live runs'
// golden results bit-identically, mixed freely with synthetic lanes in
// the same batch.
func TestTraceReplayBatchLanes(t *testing.T) {
	dir := t.TempDir()
	base := resumeConfig("li", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false)
	traced := traceFor(t, dir, base)

	var cfgs, live []Config
	var labels []string
	for _, org := range resumeOrgs {
		cfg := traced
		cfg.Memory = mem.DefaultSRAMSystem(32<<10, 1, org.ports, org.lb)
		cfgs = append(cfgs, cfg)
		live = append(live, resumeConfig("li", org.ports, org.lb))
		labels = append(labels, "resume/"+org.name+"/li")
	}
	// A synthetic lane of a different benchmark rides along: stream
	// grouping must keep trace-backed and live lanes apart.
	compress := resumeConfig("compress", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false)
	cfgs, live, labels = append(cfgs, compress), append(live, compress), append(labels, "resume/ideal/compress")

	batchRes, batchErrs := RunBatch(context.Background(), cfgs, RunOpts{Hash: true})
	for i, err := range batchErrs {
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		requireGolden(t, labels[i], live[i], batchRes[i])
	}
}

// TestTraceReplayPrewarmCache pins trace-backed runs on the prewarm
// cache: three configs replaying one recording — two cache geometries,
// one of them twice — share its prefix and a finished warm state
// through one cache, each Result equal to its cold run's, stream hash
// included.
func TestTraceReplayPrewarmCache(t *testing.T) {
	dup := mem.PortConfig{Kind: mem.DuplicatePorts}
	traced := traceFor(t, t.TempDir(), prewarmCacheConfig("li", 32<<10, dup, false, PrewarmFastForward))
	cache := NewPrewarmCache()
	for i, org := range []struct {
		size  int
		ports mem.PortConfig
	}{
		{32 << 10, dup},
		{32 << 10, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}},
		{64 << 10, dup},
	} {
		cfg := traced
		cfg.Memory = mem.DefaultSRAMSystem(org.size, 1, org.ports, false)
		shared, err := RunContext(context.Background(), cfg, RunOpts{Hash: true, Prewarm: cache})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := RunContext(context.Background(), cfg, RunOpts{Hash: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared, cold) {
			t.Errorf("config %d: trace run through the prewarm cache diverged:\nshared: %+v\ncold:   %+v", i, shared, cold)
		}
	}
	if st := cache.Stats(); st != (PrewarmStats{Hits: 2, Misses: 1, WarmFills: 2, WarmApplies: 1}) {
		t.Errorf("stats = %+v; want 2 hits, 1 miss, 2 warm fills, 1 warm apply", st)
	}
}

// TestTraceReplaySampled pins replay identity under interval sampling:
// the sampler's alternation of timed windows and functional
// fast-forward must land on the same stream positions either way.
func TestTraceReplaySampled(t *testing.T) {
	dir := t.TempDir()
	cfg := resumeConfig("tomcatv", mem.PortConfig{Kind: mem.DuplicatePorts}, true)
	cfg.Sample = &SampleSpec{IntervalInsts: 10_000, WindowInsts: 2_000, WarmupInsts: 500}
	live, err := RunContext(context.Background(), cfg, RunOpts{Hash: true})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := RunContext(context.Background(), traceFor(t, dir, cfg), RunOpts{Hash: true})
	if err != nil {
		t.Fatal(err)
	}
	if live.Sampled == nil || replayed.Sampled == nil {
		t.Fatal("sampled runs reported no sampling summary")
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("sampled trace replay diverged:\nlive:     %+v\nreplayed: %+v", live, replayed)
	}
}

// TestTraceReplaySnapshotResume pins the checkpoint path on traces: a
// trace-backed run snapshotted mid-flight and resumed must reproduce
// the straight-through replay bit-identically, exercising the
// TraceReader's state export/import through the sealed snapshot.
func TestTraceReplaySnapshotResume(t *testing.T) {
	dir := t.TempDir()
	cfg := traceFor(t, dir, resumeConfig("vcs", mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false))
	snap := filepath.Join(dir, "mid.json")
	straight, err := RunContext(context.Background(), cfg, RunOpts{
		Hash:         true,
		SnapshotPath: snap,
		SnapshotAt:   6_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("mid-run snapshot never written: %v", err)
	}
	resumed, err := RunContext(context.Background(), cfg, RunOpts{Hash: true, Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(straight, resumed) {
		t.Fatalf("trace-backed resume diverged:\nstraight: %+v\nresumed:  %+v", straight, resumed)
	}

	// The snapshot pins the trace digest: restoring it against a
	// different recording must be rejected, not silently replayed.
	other := traceFor(t, t.TempDir(), resumeConfig("vcs", mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false))
	st, err := ReadSnapshot(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := other.newSource()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ImportState(st.Gen); err != nil {
		t.Logf("cross-trace import rejected as expected: %v", err)
	} else if other.Trace.Digest != cfg.Trace.Digest {
		t.Fatal("snapshot state imported into a different trace")
	}
}

// TestTraceReplayChecked runs a trace-backed simulation under the full
// cycle-level invariant checker: replayed streams must be as
// well-formed as synthesized ones.
func TestTraceReplayChecked(t *testing.T) {
	dir := t.TempDir()
	cfg := traceFor(t, dir, resumeConfig("database", mem.PortConfig{Kind: mem.DuplicatePorts}, true))
	if _, err := RunContext(context.Background(), cfg, RunOpts{Check: true, Hash: true}); err != nil {
		t.Fatalf("checked trace replay failed: %v", err)
	}
}

// TestTraceValidateAndErrors covers the config-boundary failure modes:
// missing path, missing file, digest mismatch — all ErrInvalidConfig,
// all detected at Validate time rather than mid-run.
func TestTraceValidateAndErrors(t *testing.T) {
	dir := t.TempDir()
	good := traceFor(t, dir, resumeConfig("gcc", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false))
	if err := good.WithDefaults().Validate(); err != nil {
		t.Fatalf("valid trace config rejected: %v", err)
	}

	cases := map[string]*TraceRef{
		"no path":         {Digest: good.Trace.Digest},
		"missing file":    {Path: filepath.Join(dir, "nope.trace")},
		"digest mismatch": {Path: good.Trace.Path, Digest: "0000000000000000000000000000000000000000000000000000000000000000"},
	}
	for name, ref := range cases {
		cfg := good
		cfg.Trace = ref
		if err := cfg.WithDefaults().Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: got %v, want ErrInvalidConfig", name, err)
		}
		if _, err := RunContext(context.Background(), cfg, RunOpts{}); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: RunContext got %v, want ErrInvalidConfig", name, err)
		}
	}

	// A config that already replays a trace cannot be re-recorded.
	if _, err := RecordTrace(good, 0); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("RecordTrace on a trace config: got %v, want ErrInvalidConfig", err)
	}
}

// TestTraceShortRecordingEndsCleanly pins the wind-down contract: a
// trace too short for its windows must end the run gracefully (the
// core drains and reports what retired), never hang or panic — in both
// the single-run and batch kernels.
func TestTraceShortRecordingEndsCleanly(t *testing.T) {
	cfg := resumeConfig("gcc", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false)
	cfg = cfg.WithDefaults()
	// Record barely past prewarm: the timed phases starve early.
	data, err := workload.RecordTrace(cfg.Benchmark, cfg.Seed, cfg.PrewarmInsts+10_000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "short.trace")
	if err := durable.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &TraceRef{Path: path}
	res, err := RunContext(context.Background(), cfg, RunOpts{})
	if err != nil {
		t.Fatalf("short trace: %v", err)
	}
	if res.Instructions >= cfg.MeasureInsts {
		t.Fatalf("short trace measured %d instructions, expected starvation below %d", res.Instructions, cfg.MeasureInsts)
	}
	batchRes, batchErrs := RunBatch(context.Background(), []Config{cfg}, RunOpts{})
	if batchErrs[0] != nil {
		t.Fatalf("short trace in batch: %v", batchErrs[0])
	}
	if !reflect.DeepEqual(res, batchRes[0]) {
		t.Fatalf("short-trace batch diverged from single run:\nsingle: %+v\nbatch:  %+v", res, batchRes[0])
	}
}
