package mem

import "fmt"

// SystemConfig assembles a complete data memory hierarchy. Exactly one
// of L2 or DRAM must be set: the SRAM organization is L1 + off-chip L2 +
// memory; the DRAM organization is row-buffer L1 + on-chip DRAM cache +
// memory with no off-chip secondary cache.
type SystemConfig struct {
	L1   L1Config    `json:"l1"`
	L2   *L2Config   `json:"l2,omitempty"`
	DRAM *DRAMConfig `json:"dram,omitempty"`

	// MemoryLatencyCycles is main memory's access time in processor
	// cycles (60 at the baseline 200 MHz; Figure 9 scales it).
	MemoryLatencyCycles int `json:"memory_latency_cycles"`

	// CycleNs is the processor cycle period in nanoseconds, used to
	// convert the paper's bus bandwidths into bytes per cycle.
	CycleNs float64 `json:"cycle_ns"`

	// ChipBusGBs is the peak processor-chip bandwidth in GByte/s
	// (2.5 to the off-chip L2 in the SRAM organization; also used as the
	// chip's memory-request path in the DRAM organization).
	ChipBusGBs float64 `json:"chip_bus_gbs"`

	// MemBusGBs is the peak L2-to-memory bandwidth in GByte/s (1.6).
	MemBusGBs float64 `json:"mem_bus_gbs"`
}

// Default bandwidths from the paper's section 3.1.
const (
	DefaultChipBusGBs = 2.5
	DefaultMemBusGBs  = 1.6
	// DefaultMemoryLatencyCycles is main memory's 300 ns at 200 MHz.
	DefaultMemoryLatencyCycles = 60
	// DefaultL2HitCycles is the secondary cache's 50 ns at 200 MHz.
	DefaultL2HitCycles = 10
	// DefaultCycleNs is the 200 MHz baseline cycle.
	DefaultCycleNs = 5.0
)

// DefaultSRAMSystem returns the paper's baseline memory system around a
// primary cache of the given size, hit time, and port organization.
func DefaultSRAMSystem(l1Bytes, l1HitCycles int, ports PortConfig, lineBuffer bool) SystemConfig {
	l1 := DefaultL1Config(l1Bytes, l1HitCycles, ports)
	l1.LineBuffer = lineBuffer
	l2 := DefaultL2Config(DefaultL2HitCycles)
	return SystemConfig{
		L1:                  l1,
		L2:                  &l2,
		MemoryLatencyCycles: DefaultMemoryLatencyCycles,
		CycleNs:             DefaultCycleNs,
		ChipBusGBs:          DefaultChipBusGBs,
		MemBusGBs:           DefaultMemBusGBs,
	}
}

// DefaultDRAMSystem returns the paper's DRAM organization: a 16 Kbyte
// two-way-set-associative row-buffer cache with 512-byte lines and a
// single-cycle hit time, eight-way banked, backed by a 4 Mbyte on-chip
// DRAM cache with the given hit time and no off-chip secondary cache.
func DefaultDRAMSystem(dramHitCycles int, lineBuffer bool) SystemConfig {
	return CustomDRAMSystem(16<<10, 1, dramHitCycles, lineBuffer)
}

// CustomDRAMSystem returns the DRAM organization with an adjustable
// row-buffer cache. The paper's sensitivity discussion needs two
// variants of the default: a two-cycle row-buffer hit time (which it
// says makes the DRAM cache not worth building) and a 32 Kbyte
// row-buffer cache (which it says the DRAM cache needs to compete with
// SRAM).
func CustomDRAMSystem(rowBufBytes, rowBufHitCycles, dramHitCycles int, lineBuffer bool) SystemConfig {
	return CustomDRAMSystemLines(rowBufBytes, 512, rowBufHitCycles, dramHitCycles, lineBuffer)
}

// CustomDRAMSystemLines additionally selects the primary cache's line
// size. The paper quantifies the cost of the row-buffer cache's
// 512-byte lines by comparing against "an equivalent SRAM cache with 32
// byte lines" over the same DRAM; lineBytes = 32 builds that
// comparator.
func CustomDRAMSystemLines(rowBufBytes, lineBytes, rowBufHitCycles, dramHitCycles int, lineBuffer bool) SystemConfig {
	l1 := L1Config{
		Bytes:      rowBufBytes,
		LineBytes:  lineBytes,
		Assoc:      2,
		HitCycles:  rowBufHitCycles,
		Ports:      PortConfig{Kind: BankedPorts, Count: 8},
		MSHRs:      4,
		LineBuffer: lineBuffer,
	}
	dram := DefaultDRAMConfig(dramHitCycles)
	return SystemConfig{
		L1:                  l1,
		DRAM:                &dram,
		MemoryLatencyCycles: DefaultMemoryLatencyCycles,
		CycleNs:             DefaultCycleNs,
		ChipBusGBs:          DefaultChipBusGBs,
		MemBusGBs:           DefaultMemBusGBs,
	}
}

// System is an assembled hierarchy. The CPU interacts with L1 (loads,
// stores, drain); the rest is reachable for statistics.
type System struct {
	L1 *L1Cache
	// Lower is the off-chip L2 in the SRAM organization, the on-chip
	// DRAM cache in the DRAM organization.
	Lower  *LowerCache
	Memory *Memory
	// ChipBus is the processor-to-L2 bus in the SRAM organization, nil
	// otherwise.
	ChipBus *Bus
	// MemBus is the bus in front of main memory.
	MemBus *Bus
}

// NewSystem builds and wires a hierarchy from cfg.
func NewSystem(cfg SystemConfig) (*System, error) {
	if (cfg.L2 == nil) == (cfg.DRAM == nil) {
		return nil, fmt.Errorf("mem: exactly one of L2 and DRAM must be configured")
	}
	if cfg.CycleNs <= 0 {
		return nil, fmt.Errorf("mem: cycle period must be positive, got %g ns", cfg.CycleNs)
	}
	memBus, err := NewBus(cfg.MemBusGBs, cfg.CycleNs)
	if err != nil {
		return nil, err
	}
	memory, err := NewMemory(cfg.MemoryLatencyCycles, memBus)
	if err != nil {
		return nil, err
	}
	sys := &System{Memory: memory, MemBus: memBus}
	if l2 := cfg.L2; l2 != nil {
		if sys.ChipBus, err = NewBus(cfg.ChipBusGBs, cfg.CycleNs); err != nil {
			return nil, err
		}
		sys.Lower, err = NewLowerCache(l2.Bytes, l2.LineBytes, l2.Assoc, l2.HitCycles, sys.ChipBus, memory)
	} else {
		d := cfg.DRAM
		sys.Lower, err = NewLowerCache(d.Bytes, d.RowBytes, d.Assoc, d.HitCycles, nil, memory)
	}
	if err != nil {
		return nil, err
	}
	if sys.L1, err = NewL1Cache(cfg.L1, sys.Lower); err != nil {
		return nil, err
	}
	return sys, nil
}

// CheckInvariants cross-checks the hierarchy's redundant bookkeeping
// (currently all of it lives in the primary cache: store buffer
// filter, MSHR file, line buffer, port scheduler). Called per cycle by
// the invariant checker in internal/check.
func (s *System) CheckInvariants() error {
	return s.L1.CheckInvariants()
}

// WarmTouch brings addr's line into every level's tag array without
// charging time: misses at L1 touch the level below, as a real fill
// would. Used to pre-warm the hierarchy to steady state before a
// measured run.
func (s *System) WarmTouch(addr uint64) {
	if !s.L1.WarmTouch(addr) {
		s.Lower.WarmTouch(addr)
	}
}
