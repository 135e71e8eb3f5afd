package sim

import (
	"testing"
	"testing/quick"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// buildMachine assembles a full machine by hand so counters can be
// cross-checked between the core and the hierarchy.
func buildMachine(t *testing.T, bench string, memory mem.SystemConfig) (*cpu.CPU, *mem.System) {
	t.Helper()
	gen, err := workload.New(bench, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mem.NewSystem(memory)
	if err != nil {
		t.Fatal(err)
	}
	core, err := cpu.New(cpu.DefaultConfig(), gen, sys.L1)
	if err != nil {
		t.Fatal(err)
	}
	return core, sys
}

func TestLoadConservation(t *testing.T) {
	// Every dispatched load is eventually satisfied by exactly one of:
	// the memory hierarchy (L1/LB) or store-to-load forwarding. In
	// mid-flight the window may hold up to WindowSize unsatisfied loads.
	core, sys := buildMachine(t, "gcc", mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.DuplicatePorts}, true))
	core.Run(100_000)
	s := core.Stats()
	satisfied := sys.L1.Loads() + s.LoadForwarded
	if satisfied > s.Loads {
		t.Errorf("satisfied loads (%d) exceed dispatched loads (%d)", satisfied, s.Loads)
	}
	if s.Loads-satisfied > 64 {
		t.Errorf("%d loads unaccounted for (window is only 64)", s.Loads-satisfied)
	}
}

func TestStoreConservation(t *testing.T) {
	// Every retired store is either drained into the cache or still in
	// the store buffer.
	core, sys := buildMachine(t, "database", mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false))
	core.Run(100_000)
	s := core.Stats()
	accounted := sys.L1.StoresDrained() + uint64(sys.L1.StoreBufferLen())
	// Stores merged into in-flight MSHR lines are counted as drained by
	// the port scheduler but not by StoresDrained; allow that slack.
	if accounted > s.Stores {
		t.Errorf("accounted stores (%d) exceed retired stores (%d)", accounted, s.Stores)
	}
	if s.Stores-accounted > s.Stores/5+64 {
		t.Errorf("too many stores unaccounted: retired %d, accounted %d", s.Stores, accounted)
	}
}

func TestMissesRequireAccesses(t *testing.T) {
	// The next level sees exactly the L1's misses (loads and stores),
	// no more (modulo MSHR merges, which reduce accesses).
	core, sys := buildMachine(t, "gcc", mem.DefaultSRAMSystem(8<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false))
	core.Run(60_000)
	if sys.Lower.Accesses() == 0 {
		t.Fatal("no L2 traffic for an 8K cache")
	}
	if sys.Lower.Accesses() > sys.L1.LoadMisses()+sys.L1.StoreMisses()+sys.L1.Writebacks() {
		t.Errorf("L2 accesses (%d) exceed L1 miss+writeback traffic (%d)",
			sys.Lower.Accesses(), sys.L1.LoadMisses()+sys.L1.StoreMisses()+sys.L1.Writebacks())
	}
}

func TestCycleAccountingConsistent(t *testing.T) {
	core, _ := buildMachine(t, "li", mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true))
	core.Run(20_000)
	if uint64(core.Now()) != core.Stats().Cycles {
		t.Errorf("Now() = %d but Cycles = %d", core.Now(), core.Stats().Cycles)
	}
}

func TestIPCBoundedByIssueWidth(t *testing.T) {
	f := func(seedByte uint8, sizeSel uint8, hitSel uint8) bool {
		sizes := []int{4 << 10, 32 << 10, 256 << 10}
		cfg := Config{
			Benchmark:    workload.BenchmarkNames()[int(seedByte)%9],
			Seed:         uint64(seedByte) + 1,
			CPU:          cpu.DefaultConfig(),
			Memory:       mem.DefaultSRAMSystem(sizes[int(sizeSel)%3], 1+int(hitSel)%3, mem.PortConfig{Kind: mem.DuplicatePorts}, seedByte%2 == 0),
			PrewarmInsts: 50_000,
			WarmupInsts:  2_000,
			MeasureInsts: 10_000,
		}
		r, err := Run(cfg)
		if err != nil {
			return false
		}
		return r.IPC > 0 && r.IPC <= 4.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestSlowerMemoryNeverFaster(t *testing.T) {
	// Increasing every memory latency must not increase IPC.
	base := baseConfig("gcc")
	slow := baseConfig("gcc")
	slowMem := slow.Memory
	l2 := mem.DefaultL2Config(30)
	slowMem.L2 = &l2
	slowMem.MemoryLatencyCycles = 200
	slow.Memory = slowMem
	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.IPC > rb.IPC {
		t.Errorf("slower memory produced higher IPC: %.3f > %.3f", rs.IPC, rb.IPC)
	}
}

func TestDeeperPipelineNeverFasterAtFixedSizeAndClock(t *testing.T) {
	// At a fixed cycle time and size, more hit cycles must not help
	// (the paper's Figure 4/5 premise).
	for _, bench := range []string{"gcc", "tomcatv"} {
		var prev float64
		for hit := 1; hit <= 3; hit++ {
			cfg := baseConfig(bench)
			cfg.Memory = mem.DefaultSRAMSystem(32<<10, hit, mem.PortConfig{Kind: mem.DuplicatePorts}, false)
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if hit > 1 && r.IPC > prev*1.005 {
				t.Errorf("%s: %d~ IPC %.3f exceeds %d~ IPC %.3f", bench, hit, r.IPC, hit-1, prev)
			}
			prev = r.IPC
		}
	}
}

func TestLineBufferNeverHurtsMaterially(t *testing.T) {
	// The paper: "machine performance is always increased" by the line
	// buffer. Allow sub-percent noise.
	for _, bench := range []string{"gcc", "tomcatv", "database"} {
		with := baseConfig(bench)
		with.Memory = mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.DuplicatePorts}, true)
		without := baseConfig(bench)
		without.Memory = mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.DuplicatePorts}, false)
		rw, err := Run(with)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := Run(without)
		if err != nil {
			t.Fatal(err)
		}
		if rw.IPC < ro.IPC*0.99 {
			t.Errorf("%s: line buffer hurt IPC: %.3f vs %.3f", bench, rw.IPC, ro.IPC)
		}
	}
}

func TestDRAMOrganizationRuns(t *testing.T) {
	cfg := baseConfig("tomcatv")
	cfg.Memory = mem.DefaultDRAMSystem(6, true)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0.2 || r.IPC > 4 {
		t.Errorf("DRAM organization IPC = %.3f, implausible", r.IPC)
	}
}
