package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
)

// groupedConfigs is an interleaved sweep: realConfigs' three streams
// (gcc, li, tomcatv) four configs each, plus one compress config that
// is a stream group of its own.
func groupedConfigs() []sim.Config {
	cfgs := realConfigs(12)
	solo := realConfig(0)
	solo.Benchmark = "compress"
	return append(cfgs, solo)
}

// TestRunGroupedDispatch pins stream-grouped dispatch of batches of
// one: jobs run grouped by stream in order of first appearance,
// results come back in submission order bit-identical to cold runs at
// any worker count, and only members of multi-job groups use the
// prewarm cache.
func TestRunGroupedDispatch(t *testing.T) {
	cfgs := groupedConfigs()
	cold := make([]sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res
	}
	for _, workers := range []int{1, 8} {
		r, err := New(Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		jrs, err := r.Run(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, jr := range jrs {
			if jr.Err != nil {
				t.Fatalf("j%d job %d: %v", workers, i, jr.Err)
			}
			if !reflect.DeepEqual(jr.Config, cfgs[i]) {
				t.Errorf("j%d slot %d holds another job's config", workers, i)
			}
			if !reflect.DeepEqual(jr.Result, cold[i]) {
				t.Errorf("j%d job %d: result differs from a cold run", workers, i)
			}
		}
		m := r.Metrics()
		if m.PrewarmHits+m.PrewarmMisses != 12 || m.PrewarmMisses < 3 {
			t.Errorf("j%d: %d prewarm hits, %d misses; want 12 grouped runs, at least 3 fills", workers, m.PrewarmHits, m.PrewarmMisses)
		}
		if workers == 1 && (m.PrewarmHits != 9 || m.PrewarmMisses != 3) {
			t.Errorf("j1: %d prewarm hits, %d misses; want 9, 3", m.PrewarmHits, m.PrewarmMisses)
		}
	}
}

// TestRunDispatchOrder pins the dispatch order itself: with one worker
// the simulator sees each stream group's jobs back to back, ordered
// within the group by first appearance of their cache geometry.
func TestRunDispatchOrder(t *testing.T) {
	cfgs := groupedConfigs()
	r := newTest(t, Options{Workers: 1})
	var mu sync.Mutex
	var seen []sim.Config
	r.sim = func(_ context.Context, cfg sim.Config) (sim.Result, error) {
		mu.Lock()
		seen = append(seen, cfg)
		mu.Unlock()
		return sim.Result{Benchmark: cfg.Benchmark}, nil
	}
	if _, err := r.Run(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	// gcc's configs 0, 6 and 9 have 32 KB L1s and config 3 a 16 KB
	// one, so 3 moves behind them; li's and tomcatv's 16 KB configs
	// (7 and 11) already come last.
	var want []sim.Config
	for _, i := range []int{0, 6, 9, 3, 1, 4, 10, 7, 2, 5, 8, 11, 12} {
		want = append(want, cfgs[i])
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("dispatch order differs from the grouped order")
	}
}

// TestRunSharesWarmState pins the finished-prewarm sharing end to end:
// two streams, three cache geometries each, two port organizations per
// geometry, submitted interleaved to a one-worker runner, fill the
// warm slot exactly once per (stream, geometry) and apply it to the
// other organization — and every job's Result, stream hash included,
// is byte-identical to a cold run of its config. The same sweep under
// a snapshot directory, stopped by its cycle budget early in a longer
// warmup, still shares the warm slot, and every job's parked abort
// snapshot is byte-identical to a cold run's: the whole machine,
// predictor included, before warmup could re-train it.
func TestRunSharesWarmState(t *testing.T) {
	var cfgs []sim.Config
	for _, ports := range []mem.PortConfig{{Kind: mem.DuplicatePorts}, {Kind: mem.BankedPorts, Count: 8}} {
		for _, size := range []int{8 << 10, 32 << 10, 128 << 10} {
			for _, bench := range []string{"database", "gcc"} {
				cfgs = append(cfgs, sim.Config{
					Benchmark: bench, Seed: 1, CPU: cpu.DefaultConfig(),
					Memory:       mem.DefaultSRAMSystem(size, 2, ports, ports.Kind == mem.BankedPorts),
					PrewarmInsts: 20_000, WarmupInsts: 200, MeasureInsts: 6_000,
				})
			}
		}
	}
	r, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.runOpts.Hash = true
	jrs, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range jrs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		cold, err := sim.RunContext(context.Background(), cfgs[i], sim.RunOpts{Hash: true})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(jr.Result)
		want, _ := json.Marshal(cold)
		if cold.StreamHash == 0 || !bytes.Equal(got, want) {
			t.Errorf("job %d: result differs from a cold run:\n got %s\nwant %s", i, got, want)
		}
	}
	m := r.Metrics()
	if m.PrewarmWarmFills != 6 || m.PrewarmWarmApplies != 6 {
		t.Errorf("%d warm fills, %d applies; want 6 and 6 (one fill per stream and geometry)", m.PrewarmWarmFills, m.PrewarmWarmApplies)
	}
	if m.PrewarmHits != 10 || m.PrewarmMisses != 2 {
		t.Errorf("%d prefix hits, %d misses; want 10, 2", m.PrewarmHits, m.PrewarmMisses)
	}

	dir, coldDir := t.TempDir(), t.TempDir()
	r, err = New(Options{Workers: 1, SnapshotDir: dir, SimMaxCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.runOpts.Hash = true
	for i := range cfgs {
		cfgs[i].WarmupInsts = 20_000 // the budget's first poll, at cycle 1024, lands inside it
	}
	jrs, err = r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range jrs {
		if !errors.Is(jr.Err, sim.ErrBudget) {
			t.Fatalf("budgeted job %d: err = %v, want ErrBudget", i, jr.Err)
		}
		key := mustKey(t, cfgs[i])
		coldPath := filepath.Join(coldDir, key+".json")
		opts := sim.RunOpts{Hash: true, MaxCycles: 1, SnapshotOnAbort: coldPath}
		if _, err := sim.RunContext(context.Background(), cfgs[i], opts); !errors.Is(err, sim.ErrBudget) {
			t.Fatalf("budgeted cold run %d: err = %v, want ErrBudget", i, err)
		}
		if st, err := sim.ReadSnapshot(coldPath, nil); err != nil || st.Phase != "warmup" {
			t.Fatalf("cold run %d parked no warmup snapshot (err %v)", i, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "abort-"+key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(coldPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %d: abort snapshot differs from a cold run's", i)
		}
	}
	if m := r.Metrics(); m.PrewarmWarmFills != 6 || m.PrewarmWarmApplies != 6 {
		t.Errorf("SnapshotDir runner: %d warm fills, %d applies; want 6 and 6", m.PrewarmWarmFills, m.PrewarmWarmApplies)
	}
}

// TestRunJobBypassesPrewarmCache pins that single jobs — a Run of one,
// the service's path — never pay for recording a prefix.
func TestRunJobBypassesPrewarmCache(t *testing.T) {
	r, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range realConfigs(4) {
		if jr := runJob(context.Background(), r, cfg); jr.Err != nil {
			t.Fatal(jr.Err)
		}
	}
	if m := r.Metrics(); m.PrewarmHits != 0 || m.PrewarmMisses != 0 {
		t.Errorf("Run of one touched the prewarm cache: %d hits, %d misses", m.PrewarmHits, m.PrewarmMisses)
	}
}
