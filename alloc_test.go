package hbcache_test

// Allocation regression tests for the simulator's hot loop. Every
// function here runs millions of times per simulated second; a single
// heap allocation per call regresses whole-simulation throughput by
// integer factors, so each is pinned at exactly zero allocs per call
// once the machine reaches steady state. Construction is pinned only
// by size: a batch builds each lane no bigger than a single run.

import (
	"context"
	"runtime"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// pinZeroAllocs runs f under testing.AllocsPerRun and fails on any
// heap allocation.
func pinZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(1000, f); n != 0 {
		t.Errorf("%s: %.1f allocs/call, want 0", name, n)
	}
}

func TestGeneratorNextAllocFree(t *testing.T) {
	for _, name := range workload.BenchmarkNames() {
		g := workload.MustNew(name, 1)
		// Advance past the first templates so every code path (kernel
		// entry, chase chains, template rotation) has been exercised.
		for i := 0; i < 10_000; i++ {
			g.Next()
		}
		pinZeroAllocs(t, "Generator.Next("+name+")", func() { g.Next() })
	}
}

func TestGeneratorWarmAllocFree(t *testing.T) {
	g := workload.MustNew("gcc", 1)
	addrs := make([]uint64, 512)
	branches := make([]uint64, 512)
	g.Warm(10_000, make([]uint64, 10_000), make([]uint64, 10_000))
	pinZeroAllocs(t, "Generator.Warm", func() { g.Warm(len(addrs), addrs, branches) })
}

func TestArrayLookupAllocFree(t *testing.T) {
	a := mem.MustNewArray(32<<10, 32, 2)
	for i := 0; i < 1024; i++ {
		a.Fill(uint64(i) * 32)
	}
	i := 0
	pinZeroAllocs(t, "Array.Lookup", func() {
		a.Lookup(uint64(i%1024) * 32)
		i++
	})
	pinZeroAllocs(t, "Array.Lookup (miss)", func() {
		a.Lookup(1 << 40)
	})
}

func TestL1LoadStoreAllocFree(t *testing.T) {
	sys, err := mem.NewSystem(mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.IdealPorts, Count: 4}, true))
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 32<<10; addr += 32 {
		sys.WarmTouch(addr)
	}
	now := mem.Cycle(0)
	i := 0
	pinZeroAllocs(t, "L1.TryLoad (hit)", func() {
		sys.L1.TryLoad(now, uint64(i%4096)*8)
		now++
		i++
	})
	// Misses walk the MSHR/line-buffer/next-level path.
	addr := uint64(1 << 30)
	pinZeroAllocs(t, "L1.TryLoad (miss)", func() {
		sys.L1.TryLoad(now, addr)
		now += 100
		addr += 32
	})
	pinZeroAllocs(t, "L1.EnqueueStore+DrainStores", func() {
		sys.L1.EnqueueStore(uint64(i%4096) * 8)
		sys.L1.DrainStores(now)
		now++
		i++
	})
}

func TestCPUStepAllocFree(t *testing.T) {
	gen := workload.MustNew("gcc", 1)
	sys, err := mem.NewSystem(mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true))
	if err != nil {
		t.Fatal(err)
	}
	core, err := cpu.New(cpu.DefaultConfig(), gen, sys.L1)
	if err != nil {
		t.Fatal(err)
	}
	// Run well past cold start: the window, LSQ, store buffer, MSHRs and
	// wakeup structures are all at steady-state occupancy by 20k cycles.
	core.RunCycles(20_000)
	pinZeroAllocs(t, "CPU.Step", func() { core.Step() })
}

// TestCPUStepCheckerDisabledAllocFree pins the cost of the invariant-
// checker hooks when checking is off (sim.RunOpts.Check=false, the
// default): with no checker installed the guarded hook sites must
// compile down to nil tests and the hot loop must stay at exactly
// zero allocations, same as before the hooks existed. The checked
// mode is allowed to allocate — it trades an order of magnitude of
// speed for validation — but nobody who didn't ask for it pays.
func TestCPUStepCheckerDisabledAllocFree(t *testing.T) {
	gen := workload.MustNew("database", 1)
	sys, err := mem.NewSystem(mem.DefaultSRAMSystem(16<<10, 1, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false))
	if err != nil {
		t.Fatal(err)
	}
	core, err := cpu.New(cpu.DefaultConfig(), gen, sys.L1)
	if err != nil {
		t.Fatal(err)
	}
	core.SetChecker(nil) // explicit: checking disabled
	core.RunCycles(20_000)
	pinZeroAllocs(t, "CPU.Step (checker disabled)", func() { core.Step() })
}

// TestBatchStepAllocFree pins the batch kernel's steady-state round:
// once every lane is past prewarm, a lockstep Step — ring refills,
// chunked core runs, a sampled lane's interval schedule with its
// functional fast-forwards and window records, retirement bookkeeping
// across all lanes — must not allocate at all. The windows are
// oversized so no lane settles during the pin (settling allocates the
// Result, which is construction/teardown cost, not hot-loop cost).
func TestBatchStepAllocFree(t *testing.T) {
	mk := func(ports mem.PortConfig) sim.Config {
		return sim.Config{
			Benchmark:    "gcc",
			Seed:         1,
			CPU:          cpu.DefaultConfig(),
			Memory:       mem.DefaultSRAMSystem(32<<10, 1, ports, false),
			PrewarmInsts: 10_000,
			WarmupInsts:  1 << 40, // never finishes during the pin
			MeasureInsts: 10_000,
		}
	}
	// The sampled lane reaches its measure phase in the first rounds
	// and times about one interval per two rounds, so a hundred
	// intervals outlast the pin.
	sampled := mk(mem.PortConfig{Kind: mem.DuplicatePorts})
	sampled.WarmupInsts = 2_000
	sampled.MeasureInsts = 100 * 20_000
	sampled.Sample = &sim.SampleSpec{IntervalInsts: 20_000, WindowInsts: 3_000, WarmupInsts: 1_000}
	cfgs := []sim.Config{
		mk(mem.PortConfig{Kind: mem.IdealPorts, Count: 2}),
		mk(mem.PortConfig{Kind: mem.BankedPorts, Count: 8}),
		sampled,
	}
	b, err := sim.NewBatch(context.Background(), cfgs, sim.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// First Step performs the shared prewarm; a few more reach
	// steady-state pipeline occupancy.
	for i := 0; i < 4; i++ {
		if !b.Step() {
			t.Fatal("batch settled during warmup; lanes misconfigured")
		}
	}
	if n := testing.AllocsPerRun(100, func() { b.Step() }); n != 0 {
		t.Errorf("Batch.Step: %.1f allocs/round, want 0", n)
	}
	if b.Active() != len(cfgs) {
		t.Fatalf("Active() = %d, want %d", b.Active(), len(cfgs))
	}
}

// TestBatchConstructionBytes pins what building a batch costs: a
// sixteen-lane sim.NewBatch over the BenchmarkBatchSweep design space
// allocates at most 1.1x the bytes of sixteen NewBatches of one. Each
// lane's hierarchy and core are built once, as a single run builds
// them; a second, repacked copy of every lane's tag storage would read
// about 2x.
func TestBatchConstructionBytes(t *testing.T) {
	allocated := func(batches ...[]sim.Config) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, cfgs := range batches {
			b, err := sim.NewBatch(context.Background(), cfgs, sim.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			b.Close()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cfgs := batchSweepConfigs()
	var ones [][]sim.Config
	for _, cfg := range cfgs {
		ones = append(ones, []sim.Config{cfg})
	}
	batch, single := allocated(cfgs), allocated(ones...)
	if float64(batch) > 1.1*float64(single) {
		t.Errorf("NewBatch of %d lanes allocated %d bytes, %.2fx the %d of %d batches of one; want at most 1.1x",
			len(cfgs), batch, float64(batch)/float64(single), single, len(cfgs))
	}
}

// TestNewSystemBytes pins what one hierarchy costs to build:
// BenchmarkFullSimulation's memory system (a 32 KB unsectored L1 with
// a line buffer over the 4 MB L2) allocates at most 0.8 MB. Only a
// sectored L1 keeps per-line metadata words; allocating them for every
// array would put 512 KB of zeros in the L2 alone and read about
// 1.24 MB.
func TestNewSystemBytes(t *testing.T) {
	cfg := mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := mem.NewSystem(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sys)
	if got := after.TotalAlloc - before.TotalAlloc; got > 800_000 {
		t.Errorf("mem.NewSystem allocated %d bytes, want at most 800000", got)
	}
}

// TestPrewarmReplayAllocFree pins the prewarm cache's hit paths: a run
// that replays a cached prefix, and a run that applies a captured warm
// state and replays the prefix's branch outcomes, each allocate about
// the same whether the prefix holds twenty thousand instructions or
// ten times as many (tens of thousands more references and outcomes),
// so neither replay loop allocates per entry and the warm slot's
// buffers are reused. Whole runs vary by a couple of allocations with
// their content, cold runs included, hence the small slack rather than
// exact equality.
func TestPrewarmReplayAllocFree(t *testing.T) {
	cache := sim.NewPrewarmCache()
	opts := sim.RunOpts{Prewarm: cache}
	hitAllocs := func(prewarm uint64) (replay, apply float64) {
		mk := func(size int, ports mem.PortConfig) sim.Config {
			return sim.Config{
				Benchmark:    "gcc",
				Seed:         1,
				CPU:          cpu.DefaultConfig(),
				Memory:       mem.DefaultSRAMSystem(size, 1, ports, true),
				PrewarmInsts: prewarm,
				WarmupInsts:  500,
				MeasureInsts: 500,
			}
		}
		small := mk(16<<10, mem.PortConfig{Kind: mem.DuplicatePorts})
		large := mk(32<<10, mem.PortConfig{Kind: mem.DuplicatePorts})
		banked := mk(32<<10, mem.PortConfig{Kind: mem.BankedPorts, Count: 8})
		run := func(cfgs ...sim.Config) {
			for _, cfg := range cfgs {
				if _, err := sim.RunContext(context.Background(), cfg, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
		run(small, large)
		// Each run follows the other geometry: it replays the prefix's
		// references and recaptures the warm slot.
		replay = testing.AllocsPerRun(3, func() { run(small, large) }) / 2
		// Both runs share the geometry the slot last captured.
		apply = testing.AllocsPerRun(3, func() { run(large, banked) }) / 2
		return replay, apply
	}
	shortReplay, shortApply := hitAllocs(20_000)
	longReplay, longApply := hitAllocs(200_000)
	if st := cache.Stats(); st.Hits < 28 || st.WarmApplies < 16 {
		t.Fatalf("stats = %+v; want every measured run to replay or apply", st)
	}
	if longReplay > shortReplay+4 {
		t.Errorf("replaying run: %.1f allocs at 200k prewarm vs %.1f at 20k, want no growth with prefix length", longReplay, shortReplay)
	}
	if longApply > shortApply+4 {
		t.Errorf("applying run: %.1f allocs at 200k prewarm vs %.1f at 20k, want no growth with prefix length", longApply, shortApply)
	}
}
