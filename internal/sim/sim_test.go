package sim

import (
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
)

func baseConfig(bench string) Config {
	return Config{
		Benchmark:    bench,
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		WarmupInsts:  5_000,
		MeasureInsts: 40_000,
	}
}

func TestRunProducesPlausibleIPC(t *testing.T) {
	for _, bench := range []string{"gcc", "tomcatv", "database"} {
		r, err := Run(baseConfig(bench))
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if r.Instructions < 40_000 {
			t.Errorf("%s: measured %d instructions", bench, r.Instructions)
		}
		if r.IPC <= 0.3 || r.IPC > 4.0 {
			t.Errorf("%s: IPC = %.2f, outside plausible range", bench, r.IPC)
		}
		if r.BranchAccuracy < 0.5 || r.BranchAccuracy > 1.0 {
			t.Errorf("%s: branch accuracy = %.2f", bench, r.BranchAccuracy)
		}
		if r.MeanLoadLatency < 2 {
			t.Errorf("%s: load latency = %.2f, must include addr calc + access", bench, r.MeanLoadLatency)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(baseConfig("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.Cycles != b.Cycles || a.MissesPerInst != b.MissesPerInst {
		t.Errorf("identical configs diverge: %+v vs %+v", a, b)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	cfg := baseConfig("gcc")
	cfg.Benchmark = "nonesuch"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown benchmark must fail")
	}
}

func TestRunBadMemoryConfig(t *testing.T) {
	cfg := baseConfig("gcc")
	cfg.Memory.CycleNs = 0
	if _, err := Run(cfg); err == nil {
		t.Error("bad memory config must fail")
	}
}

func TestLineBufferHitRateReported(t *testing.T) {
	cfg := baseConfig("tomcatv")
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.LineBufferHitRate <= 0 {
		t.Errorf("tomcatv with a line buffer must have LB hits, got %.3f", r.LineBufferHitRate)
	}
	cfg.Memory = mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false)
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.LineBufferHitRate != 0 {
		t.Errorf("without a line buffer hit rate must be 0, got %.3f", r2.LineBufferHitRate)
	}
}

func TestBiggerCacheFewerMisses(t *testing.T) {
	small := baseConfig("gcc")
	small.Memory = mem.DefaultSRAMSystem(4<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false)
	big := baseConfig("gcc")
	big.Memory = mem.DefaultSRAMSystem(256<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false)
	rs, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MissesPerInst >= rs.MissesPerInst {
		t.Errorf("misses/inst: 256K (%.4f) must be below 4K (%.4f)", rb.MissesPerInst, rs.MissesPerInst)
	}
	if rb.IPC <= rs.IPC {
		t.Errorf("IPC: 256K (%.3f) must beat 4K (%.3f) for gcc", rb.IPC, rs.IPC)
	}
}

func TestScaledSRAMSystem(t *testing.T) {
	// At 25 FO4 the scaling must reproduce the baseline: 10-cycle L2,
	// 60-cycle memory, 5 ns cycle.
	cfg := ScaledSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true, 25)
	if cfg.L2.HitCycles != 10 {
		t.Errorf("L2 at 25 FO4 = %d cycles, want 10", cfg.L2.HitCycles)
	}
	if cfg.MemoryLatencyCycles != 60 {
		t.Errorf("memory at 25 FO4 = %d cycles, want 60", cfg.MemoryLatencyCycles)
	}
	if cfg.CycleNs != 5 {
		t.Errorf("cycle = %v ns, want 5", cfg.CycleNs)
	}
	// A 10 FO4 processor sees 25 and 150 cycles.
	fast := ScaledSRAMSystem(32<<10, 3, mem.PortConfig{Kind: mem.DuplicatePorts}, true, 10)
	if fast.L2.HitCycles != 25 || fast.MemoryLatencyCycles != 150 {
		t.Errorf("10 FO4 scaling: L2=%d mem=%d, want 25/150", fast.L2.HitCycles, fast.MemoryLatencyCycles)
	}
}

func TestExecutionTimeNs(t *testing.T) {
	r := Result{Cycles: 1000, Instructions: 500}
	// 25 FO4 = 5 ns: 1000 cycles * 5 ns / 500 insts = 10 ns/inst.
	if got := ExecutionTimeNs(r, 25); got != 10 {
		t.Errorf("ExecutionTimeNs = %v, want 10", got)
	}
	if ExecutionTimeNs(Result{}, 25) != 0 {
		t.Error("zero instructions must not divide by zero")
	}
}

func TestMissRatePointDecreasesWithSize(t *testing.T) {
	rates, err := MissRates("gcc", 1, []int{4 << 10, 512 << 10}, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	small, large := rates[0], rates[1]
	if small <= large {
		t.Errorf("gcc miss rate: 4K (%.4f) must exceed 512K (%.4f)", small, large)
	}
	if small <= 0 || small > 0.2 {
		t.Errorf("gcc 4K miss rate = %.4f, implausible", small)
	}
	if _, err := MissRates("nope", 1, []int{4 << 10}, 1000); err == nil {
		t.Error("unknown benchmark must fail")
	}
	if _, err := MissRates("gcc", 1, []int{1000}, 1000); err == nil {
		t.Error("bad cache geometry must fail")
	}
}

func TestGroupMissRateOrdering(t *testing.T) {
	// Figure 3: integer benchmarks have the lowest miss rates,
	// multiprogramming the highest, at moderate cache sizes.
	gcc, err := MissRates("gcc", 1, []int{32 << 10}, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := MissRates("database", 1, []int{32 << 10}, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	if gcc, db := gcc[0], db[0]; gcc >= db {
		t.Errorf("gcc (%.4f) must miss less than database (%.4f) at 32K", gcc, db)
	}
}
