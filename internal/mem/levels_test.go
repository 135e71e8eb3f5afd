package mem

import (
	"strings"
	"testing"
)

func TestMemoryTiming(t *testing.T) {
	bus, _ := NewBus(1.6, 5) // 8 B/cycle
	m, err := NewMemory(60, bus)
	if err != nil {
		t.Fatal(err)
	}
	// 60-cycle access + 8 cycles to move a 64-byte line.
	if done := m.Access(0, 0x1000, 64); done != 68 {
		t.Errorf("memory access done at %d, want 68", done)
	}
	if m.Accesses() != 1 || m.Latency() != 60 {
		t.Errorf("accesses/latency = %d/%d", m.Accesses(), m.Latency())
	}
	if _, err := NewMemory(-1, bus); err == nil {
		t.Error("negative latency must fail")
	}
	if _, err := NewMemory(60, nil); err == nil {
		t.Error("nil bus must fail")
	}
}

// newL2 and newDRAM build a lower-level cache the way NewSystem does
// for each organization: the L2 behind its chip bus, the DRAM cache
// with none.
func newL2(cfg L2Config, up *Bus, next Level) (*LowerCache, error) {
	return NewLowerCache(cfg.Bytes, cfg.LineBytes, cfg.Assoc, cfg.HitCycles, up, next)
}

func newDRAM(cfg DRAMConfig, next Level) (*LowerCache, error) {
	return NewLowerCache(cfg.Bytes, cfg.RowBytes, cfg.Assoc, cfg.HitCycles, nil, next)
}

func TestL2HitAndMissTiming(t *testing.T) {
	up, _ := NewBus(2.5, 5)     // 12.5 B/cycle: 32B in 3 cycles
	memBus, _ := NewBus(1.6, 5) // 8 B/cycle: 64B in 8 cycles
	memory, _ := NewMemory(60, memBus)
	l2, err := newL2(DefaultL2Config(10), up, memory)
	if err != nil {
		t.Fatal(err)
	}
	// Cold miss: 10 (L2 lookup) + 60 (memory) + 8 (64B mem bus)
	// + 3 (32B up the chip bus) = 81.
	if done := l2.Access(0, 0x4000, 32); done != 81 {
		t.Errorf("L2 miss done at %d, want 81", done)
	}
	if l2.Misses() != 1 {
		t.Errorf("misses = %d, want 1", l2.Misses())
	}
	// Warm hit: 10 + 3 = 13 relative to request.
	if done := l2.Access(1000, 0x4000, 32); done != 1013 {
		t.Errorf("L2 hit done at %d, want 1013", done)
	}
	if l2.Accesses() != 2 {
		t.Errorf("accesses = %d, want 2", l2.Accesses())
	}
}

func TestL2SameLineDifferentL1Lines(t *testing.T) {
	// Two different 32-byte L1 lines inside one 64-byte L2 line: the
	// second access is an L2 hit.
	up, _ := NewBus(2.5, 5)
	memBus, _ := NewBus(1.6, 5)
	memory, _ := NewMemory(60, memBus)
	l2, _ := newL2(DefaultL2Config(10), up, memory)
	l2.Access(0, 0x4000, 32)
	l2.Access(500, 0x4020, 32)
	if l2.Misses() != 1 {
		t.Errorf("misses = %d, want 1 (same 64B line)", l2.Misses())
	}
}

func TestL2Validation(t *testing.T) {
	up, _ := NewBus(2.5, 5)
	memBus, _ := NewBus(1.6, 5)
	memory, _ := NewMemory(60, memBus)
	if _, err := newL2(DefaultL2Config(0), up, memory); err == nil || !strings.Contains(err.Error(), "L2 hit latency") {
		t.Errorf("zero hit latency: err = %v, want an L2 hit latency error", err)
	}
	if _, err := newL2(DefaultL2Config(0), nil, memory); err == nil || !strings.Contains(err.Error(), "DRAM hit latency") {
		t.Errorf("zero hit latency without a chip bus: err = %v, want a DRAM hit latency error", err)
	}
	if _, err := newL2(DefaultL2Config(10), up, nil); err == nil {
		t.Error("nil next must fail")
	}
	bad := DefaultL2Config(10)
	bad.LineBytes = 60
	if _, err := newL2(bad, up, memory); err == nil {
		t.Error("bad geometry must fail")
	}
}

func TestDRAMHitAndMissTiming(t *testing.T) {
	memBus, _ := NewBus(1.6, 5)
	memory, _ := NewMemory(60, memBus)
	d, err := newDRAM(DefaultDRAMConfig(6), memory)
	if err != nil {
		t.Fatal(err)
	}
	// Cold miss: 6 (DRAM lookup) + 60 + ceil(512/8)=64 bus cycles = 130.
	if done := d.Access(0, 0x10000, 512); done != 130 {
		t.Errorf("DRAM miss done at %d, want 130", done)
	}
	// Warm hit: just the DRAM hit time (on-chip row transfer included).
	if done := d.Access(1000, 0x10000, 512); done != 1006 {
		t.Errorf("DRAM hit done at %d, want 1006", done)
	}
	if d.Accesses() != 2 || d.Misses() != 1 {
		t.Errorf("accesses/misses = %d/%d, want 2/1", d.Accesses(), d.Misses())
	}
	if _, err := newDRAM(DefaultDRAMConfig(0), memory); err == nil {
		t.Error("zero hit latency must fail")
	}
	if _, err := newDRAM(DefaultDRAMConfig(6), nil); err == nil {
		t.Error("nil next must fail")
	}
}

func TestDRAMHitTimeSweep(t *testing.T) {
	// The paper varies DRAM hit time six to eight cycles; latency must
	// pass straight through to warm hits.
	memBus, _ := NewBus(1.6, 5)
	memory, _ := NewMemory(60, memBus)
	for _, hit := range []int{6, 7, 8} {
		d, _ := newDRAM(DefaultDRAMConfig(hit), memory)
		d.Access(0, 0, 512)
		if done := d.Access(1000, 0, 512); done != Cycle(1000+hit) {
			t.Errorf("hit=%d: done at %d, want %d", hit, done, 1000+hit)
		}
	}
}

func TestFixedLatency(t *testing.T) {
	f := &FixedLatency{Cycles: 7}
	if done := f.Access(3, 0, 32); done != 10 {
		t.Errorf("done at %d, want 10", done)
	}
	if f.Accesses() != 1 {
		t.Errorf("accesses = %d, want 1", f.Accesses())
	}
}

func TestNewSystemSRAM(t *testing.T) {
	cfg := DefaultSRAMSystem(32<<10, 1, PortConfig{Kind: DuplicatePorts}, true)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.L1 == nil || sys.Lower == nil || sys.Memory == nil || sys.ChipBus == nil || sys.MemBus == nil {
		t.Fatal("SRAM system missing components")
	}
	if sys.Lower.bus != sys.ChipBus {
		t.Error("SRAM system's L2 must sit behind the chip bus")
	}
	if sys.L1.LineBuffer() == nil {
		t.Error("line buffer requested but absent")
	}
	// Cold load goes all the way to memory; the neighbouring 32-byte L1
	// line then hits in the 64-byte L2 line: 1 (L1 lookup) + 10 (L2 hit)
	// + 3 (32B up the chip bus) = 14 cycles.
	if _, ok := sys.L1.TryLoad(0, 0x100); !ok {
		t.Fatal("cold load refused")
	}
	r, ok := sys.L1.TryLoad(1000, 0x120)
	if !ok {
		t.Fatal("second load refused")
	}
	if r.Done != 1014 {
		t.Errorf("L2-hit load done at %d, want 1014 (1+10+3)", r.Done)
	}
}

func TestNewSystemSRAMColdMissThroughMemory(t *testing.T) {
	cfg := DefaultSRAMSystem(8<<10, 1, PortConfig{Kind: IdealPorts, Count: 2}, false)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := sys.L1.TryLoad(0, 0x100)
	// L2 is cold too: 1 (L1) + 10 (L2) + 60 (mem) + 8 (64B) + 3 (32B up) = 82.
	if r.Done != 82 {
		t.Errorf("cold full-path load done at %d, want 82", r.Done)
	}
	if sys.Memory.Accesses() != 1 || sys.Lower.Misses() != 1 {
		t.Error("cold miss must reach memory exactly once")
	}
}

func TestNewSystemDRAM(t *testing.T) {
	sys, err := NewSystem(DefaultDRAMSystem(6, true))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Lower == nil || sys.Lower.bus != nil || sys.ChipBus != nil {
		t.Fatal("DRAM system wiring wrong")
	}
	if sys.L1.Config().LineBytes != 512 || sys.L1.Config().Bytes != 16<<10 {
		t.Error("row-buffer cache geometry wrong")
	}
	// Warm DRAM hit path: L1 lookup (1) + DRAM (6) = 7.
	r1, _ := sys.L1.TryLoad(0, 0x100)
	_ = r1
	r2, ok := sys.L1.TryLoad(10000, 0x100+16<<10*4) // conflicting? use distinct line
	_ = r2
	_ = ok
}

func TestNewSystemValidation(t *testing.T) {
	var cfg SystemConfig
	if _, err := NewSystem(cfg); err == nil {
		t.Error("neither L2 nor DRAM must fail")
	}
	l2 := DefaultL2Config(10)
	dram := DefaultDRAMConfig(6)
	cfg = DefaultSRAMSystem(32<<10, 1, PortConfig{Kind: DuplicatePorts}, false)
	cfg.DRAM = &dram
	cfg.L2 = &l2
	if _, err := NewSystem(cfg); err == nil {
		t.Error("both L2 and DRAM must fail")
	}
	cfg = DefaultSRAMSystem(32<<10, 1, PortConfig{Kind: DuplicatePorts}, false)
	cfg.CycleNs = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Error("zero cycle time must fail")
	}
}
