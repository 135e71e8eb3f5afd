package sim

import (
	"errors"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
)

// Edge-of-domain coverage for the scaling helpers: garbage inputs
// must be caught by Config.Validate before a run starts, never deep
// inside the simulator, and the pure conversions must stay total.

func scaledConfig(memory mem.SystemConfig) Config {
	return Config{
		Benchmark: "gcc",
		Seed:      1,
		CPU:       cpu.DefaultConfig(),
		Memory:    memory,
	}.WithDefaults()
}

func TestScaledSRAMSystemInvalidInputsRejected(t *testing.T) {
	cases := map[string]mem.SystemConfig{
		"zero cache":         ScaledSRAMSystem(0, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false, 25),
		"negative cache":     ScaledSRAMSystem(-4096, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false, 25),
		"zero hit time":      ScaledSRAMSystem(32<<10, 0, mem.PortConfig{Kind: mem.DuplicatePorts}, false, 25),
		"negative hit time":  ScaledSRAMSystem(32<<10, -1, mem.PortConfig{Kind: mem.DuplicatePorts}, false, 25),
		"zero ideal ports":   ScaledSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.IdealPorts, Count: 0}, false, 25),
		"non-pow2 banks":     ScaledSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.BankedPorts, Count: 3}, false, 25),
		"zero cycle time":    ScaledSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false, 0),
		"negative FO4 cycle": ScaledSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false, -25),
	}
	for name, memory := range cases {
		t.Run(name, func(t *testing.T) {
			err := scaledConfig(memory).Validate()
			if err == nil {
				t.Fatal("Validate accepted a config that cannot simulate")
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("error %v is not ErrInvalidConfig", err)
			}
		})
	}
}

// TestScaledSRAMSystemLatencyMonotonicInClock: a faster processor
// (smaller FO4 cycle) must see at least as many cycles of L2 and
// memory latency — the physical times are fixed.
func TestScaledSRAMSystemLatencyMonotonicInClock(t *testing.T) {
	prevL2, prevMem := 0, 0
	for _, fo4cyc := range []float64{40, 25, 16, 10, 7} {
		cfg := ScaledSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false, fo4cyc)
		if cfg.L2.HitCycles < prevL2 || cfg.MemoryLatencyCycles < prevMem {
			t.Fatalf("at %g FO4: L2 %d cycles (prev %d), memory %d cycles (prev %d) — latencies shrank on a faster clock",
				fo4cyc, cfg.L2.HitCycles, prevL2, cfg.MemoryLatencyCycles, prevMem)
		}
		prevL2, prevMem = cfg.L2.HitCycles, cfg.MemoryLatencyCycles
	}
}

func TestExecutionTimeNsEdgeCases(t *testing.T) {
	// Zero instructions must yield zero, not a division by zero — for
	// any cycle time, including degenerate ones.
	for _, fo4cyc := range []float64{25, 1, 0, -25} {
		if got := ExecutionTimeNs(Result{Cycles: 1000}, fo4cyc); got != 0 {
			t.Errorf("ExecutionTimeNs(0 insts, %g FO4) = %v, want 0", fo4cyc, got)
		}
	}
	if got := ExecutionTimeNs(Result{Instructions: 500}, 25); got != 0 {
		t.Errorf("zero cycles must cost zero time, got %v", got)
	}
}

func TestMissRatePointRejectsBadGeometry(t *testing.T) {
	// NewArray inside MissRates must refuse impossible caches, even
	// beside valid ones.
	for _, bytes := range []int{0, -4096, 1000} { // 1000: not divisible into 32-byte 2-way sets
		if _, err := MissRates("gcc", 1, []int{4 << 10, bytes}, 1000); err == nil {
			t.Errorf("MissRates accepted %d-byte cache", bytes)
		}
	}
}
