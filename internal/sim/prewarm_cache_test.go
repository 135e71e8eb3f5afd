package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/fo4"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// TestMissRatesMatchesPerSizeLoop pins the one-pass miss-rate curve to
// the per-size measurement it replaces: for every workload, each rate
// of a nine-size MissRates call equals a single-size call and a
// reference loop over Generator.Next probing one array per size. Under
// -short or the race detector it covers the representatives only.
func TestMissRatesMatchesPerSizeLoop(t *testing.T) {
	const insts = 20_000
	sizes := fo4.PowerOfTwoSizes()
	for _, bench := range metamorphicBenches(t) {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			got, err := MissRates(bench, 3, sizes, insts)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceMissRates(t, bench, 3, sizes, insts)
			for i, size := range sizes {
				one, err := MissRates(bench, 3, []int{size}, insts)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != one[0] || got[i] != want[i] {
					t.Errorf("%s: curve %v, single-size %v, reference %v", fo4.SizeLabel(size), got[i], one[0], want[i])
				}
			}
		})
	}
}

// referenceMissRates is the instruction-at-a-time form of MissRates:
// 2M warm instructions (or insts, if larger), counters reset, then
// insts measured instructions.
func referenceMissRates(t *testing.T, bench string, seed uint64, sizes []int, insts uint64) []float64 {
	t.Helper()
	gen := workload.MustNew(bench, seed)
	arrays := make([]*mem.Array, len(sizes))
	for i, s := range sizes {
		arrays[i] = mem.MustNewArray(s, 32, 2)
	}
	warm := max(insts, 2_000_000)
	misses := make([]uint64, len(sizes))
	for i := uint64(0); i < insts+warm; i++ {
		inst, _ := gen.Next()
		if i == warm {
			clear(misses)
		}
		if !inst.Op.IsMem() {
			continue
		}
		for k, a := range arrays {
			if !a.Lookup(inst.Addr) {
				a.Fill(inst.Addr)
				misses[k]++
			}
		}
	}
	rates := make([]float64, len(sizes))
	for k, n := range misses {
		rates[k] = float64(n) / float64(insts)
	}
	return rates
}

func prewarmCacheConfig(bench string, size int, ports mem.PortConfig, lb bool, mode PrewarmMode) Config {
	return Config{
		Benchmark:    bench,
		Seed:         5,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(size, 1, ports, lb),
		PrewarmInsts: 30_000,
		WarmupInsts:  2_000,
		MeasureInsts: 6_000,
		PrewarmMode:  mode,
	}
}

// TestPrewarmCacheHitBitIdentical pins the prefix cache's contract on
// every workload: the filling run and every replaying run produce the
// golden Result of a cold run — stream hash included, invariant
// checker on — whatever geometry filled the prefix and whichever
// replays it, sampled runs included. Under -short or the race detector
// it covers the representatives only.
func TestPrewarmCacheHitBitIdentical(t *testing.T) {
	opts := RunOpts{Check: true, Hash: true}
	for _, bench := range metamorphicBenches(t) {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			cache := NewPrewarmCache()
			shared := opts
			shared.Prewarm = cache
			runs := []Config{
				prewarmCacheConfig(bench, 16<<10, mem.PortConfig{Kind: mem.DuplicatePorts}, true, PrewarmFastForward),
				prewarmCacheConfig(bench, 64<<10, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false, PrewarmFastForward),
				prewarmCacheConfig(bench, 32<<10, mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false, ""),
			}
			runs[2].Sample = &SampleSpec{IntervalInsts: 3_000, WindowInsts: 500, WarmupInsts: 500}
			for i, cfg := range runs {
				got, err := RunContext(context.Background(), cfg, shared)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("prewarm-cache/%s/%d", bench, i)
				if cfg.Sample != nil {
					label = "prewarm-cache/" + bench + "/sampled"
				}
				requireGolden(t, label, cfg, got)
			}
			// The first hit records the stream tape and reads it; the
			// sampled run may not read one.
			if st := cache.Stats(); st != (PrewarmStats{Hits: 2, Misses: 1, WarmFills: 3, TapeFills: 1, TapeReads: 1}) {
				t.Errorf("stats = %+v; want 2 hits, 1 miss, 3 warm fills (one per geometry), 1 tape fill, 1 tape read", st)
			}
		})
	}
}

// TestPrewarmCacheConcurrent runs one stream's configs on several
// goroutines through one cache at once, three geometries with two port
// organizations each: the runs that find the prefix or the warm state
// they need in flight wait for it, and every result equals its cold
// run.
func TestPrewarmCacheConcurrent(t *testing.T) {
	cache := NewPrewarmCache()
	var cfgs []Config
	for _, size := range []int{8 << 10, 32 << 10, 128 << 10} {
		for _, ports := range []mem.PortConfig{{Kind: mem.BankedPorts, Count: 8}, {Kind: mem.DuplicatePorts}} {
			cfgs = append(cfgs, prewarmCacheConfig("pmake", size, ports, true, PrewarmFastForward))
		}
	}
	got := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = RunContext(context.Background(), cfg, RunOpts{Hash: true, Prewarm: cache})
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		cold, err := RunContext(context.Background(), cfg, RunOpts{Hash: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], cold) {
			t.Errorf("config %d: concurrent cached-prefix result differs from cold run", i)
		}
	}
	if st := cache.Stats(); st.Hits != int64(len(cfgs))-1 || st.Misses != 1 {
		t.Errorf("stats = %+v; want %d hits, 1 miss (waiters share the one fill)", st, len(cfgs)-1)
	}
}

// TestPrewarmCacheBypass pins the runs that must not consult the cache:
// timing-mode prewarm and resumed runs leave its counters and its warm
// slot untouched. (Trace-backed runs use it: TestTraceReplayPrewarmCache.)
func TestPrewarmCacheBypass(t *testing.T) {
	cache := NewPrewarmCache()
	cfg := prewarmCacheConfig("li", 32<<10, mem.PortConfig{Kind: mem.DuplicatePorts}, false, PrewarmTiming)
	if _, err := RunContext(context.Background(), cfg, RunOpts{Prewarm: cache}); err != nil {
		t.Fatal(err)
	}
	snap := t.TempDir() + "/mid.json"
	cfg.PrewarmMode = PrewarmFastForward
	if _, err := RunContext(context.Background(), cfg, RunOpts{SnapshotPath: snap, SnapshotAt: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), cfg, RunOpts{Prewarm: cache, Resume: snap}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st != (PrewarmStats{}) {
		t.Errorf("stats = %+v; want the cache untouched", st)
	}
	if cache.slot.ready != nil {
		t.Error("a bypassing run claimed the warm slot")
	}
}

// TestPrewarmCacheCapacity pins the fixed two-entry LRU: a third
// stream evicts the least recently used prefix, which then refills.
func TestPrewarmCacheCapacity(t *testing.T) {
	cache := NewPrewarmCache()
	opts := RunOpts{Prewarm: cache}
	run := func(bench string) {
		t.Helper()
		cfg := prewarmCacheConfig(bench, 32<<10, mem.PortConfig{Kind: mem.DuplicatePorts}, false, PrewarmFastForward)
		cfg.PrewarmInsts = 5_000
		if _, err := RunContext(context.Background(), cfg, opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, bench := range []string{"gcc", "li", "gcc", "compress", "li", "compress"} {
		run(bench)
	}
	// gcc miss, li miss, gcc hit, compress miss (evicts li), li miss
	// (evicts gcc), compress hit.
	// Every run follows another key, so each refills the warm slot,
	// and each hit is its prefix's first, so it records a tape.
	if st := cache.Stats(); st != (PrewarmStats{Hits: 2, Misses: 4, WarmFills: 6, TapeFills: 2, TapeReads: 2}) {
		t.Errorf("stats = %+v; want 2 hits, 4 misses, 6 warm fills, 2 tape fills, 2 tape reads", st)
	}
}

// TestPrewarmCachePublish pins what a finished fill leaves behind: a
// failed fill is dropped so the next run refills it, while an
// oversized one stays unfilled so later runs drain cold without
// recording again.
func TestPrewarmCachePublish(t *testing.T) {
	cache := NewPrewarmCache()
	key := prefixKey{"gcc", 1, "", 1000}
	p, fill := cache.acquire(key)
	if !fill {
		t.Fatal("empty cache returned an entry")
	}
	cache.publish(p, false)
	if _, fill := cache.acquire(key); !fill {
		t.Error("failed fill stayed cached")
	}
	p, _ = cache.acquire(prefixKey{"li", 1, "", 1000})
	cache.publish(p, true)
	if q, fill := cache.acquire(p.key); fill || q != p || q.ok {
		t.Error("kept unfilled entry not returned as-is")
	}

	var rec prefixRecorder
	huge := make([]uint64, maxPrefixBytes/9)
	for i := range huge {
		huge[i] = uint64(i&1) << 63 // every delta encodes to ten bytes
	}
	rec.add(huge, nil)
	if !rec.full || rec.addrs.chunks != nil {
		t.Errorf("recorder past maxPrefixBytes: full=%v, %d chunks kept", rec.full, len(rec.addrs.chunks))
	}
}

// TestPrewarmCacheReplayAborts pins cancellation on the hit path: a
// replay stopped at its first poll returns ErrAborted without importing
// the generator state, and a run waiting on another run's in-flight
// fill returns ErrAborted as soon as its context ends.
func TestPrewarmCacheReplayAborts(t *testing.T) {
	cache := NewPrewarmCache()
	cfg := prewarmCacheConfig("gcc", 32<<10, mem.PortConfig{Kind: mem.DuplicatePorts}, false, PrewarmFastForward)
	if _, err := RunContext(context.Background(), cfg, RunOpts{Prewarm: cache}); err != nil {
		t.Fatal(err)
	}
	p := cache.entries[0]
	if p == nil || !p.ok {
		t.Fatal("fill left no cached prefix")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := NewBatch(ctx, []Config{cfg}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b.Close() // the watcher has raised the lane's stop flag
	m := b.lanes[0].m
	if err := m.replay(p); !errors.Is(err, ErrAborted) {
		t.Fatalf("stopped replay: err = %v, want ErrAborted", err)
	}
	if n := m.gen.Emitted(); n != 0 {
		t.Errorf("aborted replay imported the generator state (emitted %d)", n)
	}

	// An in-flight fill that never finishes: the waiter must leave on
	// its own deadline.
	pending, fill := cache.acquire(prefixKey{"li", 5, "", cfg.PrewarmInsts})
	if !fill {
		t.Fatal("pending key already cached")
	}
	defer cache.publish(pending, false)
	wctx, wcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer wcancel()
	waiter := cfg
	waiter.Benchmark = "li"
	start := time.Now()
	_, err = RunContext(wctx, waiter, RunOpts{Prewarm: cache})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("waiting run: err = %v, want ErrAborted", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("waiting run took %v to notice its deadline", d)
	}
}

// TestStreamGroups pins the grouping schedulers dispatch by: one group
// per distinct stream, members ordered by first appearance of their
// cache geometry and in submission order within one, groups in order
// of first appearance — and the identity on an already-grouped list.
func TestStreamGroups(t *testing.T) {
	mk := func(bench string, seed uint64, size int) Config {
		c := prewarmCacheConfig(bench, size, mem.PortConfig{Kind: mem.DuplicatePorts}, false, "")
		c.Seed = seed
		return c
	}
	cfgs := []Config{mk("gcc", 1, 16<<10), mk("li", 1, 16<<10), mk("gcc", 1, 32<<10), mk("gcc", 2, 16<<10), mk("li", 1, 32<<10)}
	// An explicit default mode is the same stream as an empty one.
	cfgs = append(cfgs, cfgs[0])
	cfgs[5].PrewarmMode = PrewarmFastForward
	got := StreamGroups(cfgs)
	// Config 5 has config 0's 16 KB geometry, so it moves ahead of
	// config 2's 32 KB one.
	want := [][]int{{0, 5, 2}, {1, 4}, {3}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("StreamGroups = %v, want %v", got, want)
	}
	grouped := []Config{cfgs[0], cfgs[2], cfgs[1], cfgs[4], cfgs[3]}
	if got := StreamGroups(grouped); fmt.Sprint(got) != fmt.Sprint([][]int{{0, 1}, {2, 3}, {4}}) {
		t.Errorf("grouped input regrouped: %v", got)
	}
}

// TestPrewarmCacheWarmShared pins the warm slot's contract in order:
// runs of one stream over three cache geometries (one a sectored
// row-buffer cache over a DRAM cache, whose warm evictions fill the L1
// spill map), two port organizations each, dispatched in StreamGroups
// order, capture one warm state per geometry and apply it to the
// other organization, every result equal to its cold run, stream hash
// and invariant checker included.
func TestPrewarmCacheWarmShared(t *testing.T) {
	cache := NewPrewarmCache()
	var cfgs []Config
	for _, ports := range []mem.PortConfig{{Kind: mem.DuplicatePorts}, {Kind: mem.BankedPorts, Count: 8}} {
		for _, size := range []int{16 << 10, 64 << 10} {
			cfgs = append(cfgs, prewarmCacheConfig("gcc", size, ports, ports.Kind == mem.DuplicatePorts, PrewarmFastForward))
		}
		sectored := prewarmCacheConfig("gcc", 16<<10, ports, false, PrewarmFastForward)
		sectored.Memory = mem.CustomDRAMSystemLines(16<<10, 512, 1, 6, ports.Kind == mem.DuplicatePorts)
		sectored.Memory.L1.Ports = ports
		sectored.Memory.L1.SectorBytes = 32
		cfgs = append(cfgs, sectored)
	}
	opts := RunOpts{Check: true, Hash: true}
	shared := opts
	shared.Prewarm = cache
	for _, g := range StreamGroups(cfgs) {
		for _, i := range g {
			got, err := RunContext(context.Background(), cfgs[i], shared)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := RunContext(context.Background(), cfgs[i], opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cold) {
				t.Errorf("config %d: applied warm state differs from a cold run", i)
			}
		}
	}
	if st := cache.Stats(); st != (PrewarmStats{Hits: 5, Misses: 1, WarmFills: 3, WarmApplies: 3, TapeFills: 1, TapeReads: 5}) {
		t.Errorf("stats = %+v; want 5 hits, 1 miss, 3 warm fills, 3 warm applies, 1 tape fill, 5 tape reads", st)
	}

	// The whole machine state at the end of prewarm matches too, the
	// parts no Result reads (such as the L1 spill map) included.
	fresh := RunOpts{Prewarm: NewPrewarmCache()}
	for _, g := range StreamGroups(cfgs) {
		for _, i := range g {
			if got, want := prewarmedState(t, cfgs[i], fresh), prewarmedState(t, cfgs[i], RunOpts{}); got != want {
				t.Errorf("config %d: machine state after a shared prewarm differs from a cold one", i)
			}
		}
	}
	if st := fresh.Prewarm.Stats(); st.WarmApplies != 3 {
		t.Errorf("stats = %+v; want 3 warm applies", st)
	}
}

// prewarmedState runs cfg's prewarm alone and returns the machine's
// whole exported state after it.
func prewarmedState(t *testing.T, cfg Config, opts RunOpts) string {
	t.Helper()
	b, err := NewBatch(context.Background(), []Config{cfg}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.Step() {
		t.Fatal(b.lanes[0].err)
	}
	return machineState(t, b.lanes[0].m)
}

// machineState is m's whole exported state, under a fixed phase
// cursor so that only the machine itself is compared.
func machineState(t *testing.T, m *machine) string {
	t.Helper()
	data, err := json.Marshal(m.exportState(phaseWarmup, 0))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// gatedSource is a stream source whose region listing — the first
// thing a prewarm does — blocks until release closes, then panics or
// proceeds.
type gatedSource struct {
	workload.Source
	release chan struct{}
	panics  bool
}

func (g *gatedSource) Regions() []workload.RegionInfo {
	<-g.release
	if g.panics {
		panic("gated source")
	}
	return g.Source.Regions()
}

// TestPrewarmCacheWarmFillFailure pins what a failed warm fill leaves:
// a fill that is aborted, or that panics, releases the run waiting on
// it without publishing a warm state; the waiter prewarms the long way
// to its cold result, and the next run of the key fills the slot
// afresh.
func TestPrewarmCacheWarmFillFailure(t *testing.T) {
	for _, panics := range []bool{false, true} {
		t.Run(fmt.Sprintf("panics=%v", panics), func(t *testing.T) {
			cache := NewPrewarmCache()
			cfg := prewarmCacheConfig("gcc", 32<<10, mem.PortConfig{Kind: mem.DuplicatePorts}, false, PrewarmFastForward)
			waiterCfg := prewarmCacheConfig("gcc", 32<<10, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, true, PrewarmFastForward)
			b, err := NewBatch(context.Background(), []Config{cfg}, RunOpts{Prewarm: cache})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			m := b.lanes[0].m
			gate := &gatedSource{Source: m.gen, release: make(chan struct{}), panics: panics}
			m.gen = gate
			filled := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						filled <- fmt.Errorf("panicked: %v", p)
					}
				}()
				filled <- cache.warm(m)
			}()
			waitSlot(t, cache, func(s *warmSlot) bool { return s.filling })

			type outcome struct {
				res Result
				err error
			}
			waiter := make(chan outcome, 1)
			go func() {
				res, err := RunContext(context.Background(), waiterCfg, RunOpts{Hash: true, Prewarm: cache})
				waiter <- outcome{res, err}
			}()
			waitSlot(t, cache, func(s *warmSlot) bool { return s.readers == 1 })
			if !panics {
				m.stop.Store(true) // the sweep's first poll aborts the fill
			}
			close(gate.release)
			if err := <-filled; err == nil {
				t.Fatal("failed fill reported success")
			}
			w := <-waiter
			if w.err != nil {
				t.Fatal(w.err)
			}
			cold, err := RunContext(context.Background(), waiterCfg, RunOpts{Hash: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(w.res, cold) {
				t.Error("released waiter's result differs from a cold run")
			}
			if st := cache.Stats(); st.WarmFills != 0 || st.WarmApplies != 0 {
				t.Errorf("stats = %+v; a failed fill published warm state", st)
			}
			waitSlot(t, cache, func(s *warmSlot) bool { return !s.filling && !s.ok && s.readers == 0 })

			if _, err := RunContext(context.Background(), cfg, RunOpts{Prewarm: cache}); err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); st.WarmFills != 1 {
				t.Errorf("stats = %+v; want the next run to fill the slot", st)
			}
		})
	}
}

// waitSlot polls the cache's warm slot until cond holds.
func waitSlot(t *testing.T, c *PrewarmCache, cond func(*warmSlot) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		ok := cond(&c.slot)
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("warm slot never reached the expected state")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestVarintLogRoundTrip pins the prefix encoding across chunk
// boundaries: values decode in order, exactly, whatever their deltas.
func TestVarintLogRoundTrip(t *testing.T) {
	var l varintLog
	var want []uint64
	for i := uint64(0); i < 3*logChunk; i++ {
		v := i * 0x9E3779B97F4A7C15 // deltas of every varint length, both signs
		l.add(v)
		want = append(want, v)
	}
	if len(l.chunks) < 2 {
		t.Fatalf("%d chunks; the test must cross a chunk boundary", len(l.chunks))
	}
	r := logReader{rest: l.chunks}
	var got []uint64
	for vs := r.chunk(); len(vs) > 0; vs = r.chunk() {
		got = append(got, vs...)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("entry %d: got %#x, want %#x", i, got[i], w)
		}
	}
}
