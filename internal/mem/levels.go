package mem

// Level is a cache level or memory below the primary data cache. Access
// requests the block containing addr, with the requester's line size in
// bytes (the amount that must travel back up), starting no earlier than
// cycle now; it returns the cycle at which the requested block is
// available to the requester.
//
// WriteBack delivers dirty data downward (a write-back eviction or a
// write-through store). The transfer happens through a write buffer and
// never blocks the requester, but it occupies bus bandwidth and so
// delays later misses.
type Level interface {
	Access(now Cycle, addr uint64, lineBytes int) Cycle
	WriteBack(now Cycle, addr uint64, bytes int)
}

// Memory models main memory: a fixed access latency followed by a
// bandwidth-limited transfer on the memory bus. The paper's memory has a
// sixty cycle (300 ns at 200 MHz) access time behind a 1.6 GByte/s bus.
type Memory struct {
	latency Cycle
	bus     *Bus

	accesses   Counter
	writebacks Counter
}

// NewMemory returns a memory with the given access latency in cycles and
// transfer bus (which may not be nil).
func NewMemory(latency int, bus *Bus) (*Memory, error) {
	if latency < 0 {
		return nil, errNonPositive("memory latency", latency)
	}
	if bus == nil {
		return nil, errNonPositive("memory bus", 0)
	}
	return &Memory{latency: Cycle(latency), bus: bus}, nil
}

// Access implements Level.
func (m *Memory) Access(now Cycle, addr uint64, lineBytes int) Cycle {
	m.accesses.Inc()
	return m.bus.Reserve(now+m.latency, lineBytes)
}

// WriteBack implements Level: the dirty data crosses the memory bus.
func (m *Memory) WriteBack(now Cycle, addr uint64, bytes int) {
	m.writebacks.Inc()
	m.bus.Reserve(now, bytes)
}

// Accesses returns the number of memory requests served.
func (m *Memory) Accesses() uint64 { return m.accesses.Value() }

// Writebacks returns the number of write-back transfers received.
func (m *Memory) Writebacks() uint64 { return m.writebacks.Value() }

// Latency returns the fixed access latency in cycles.
func (m *Memory) Latency() int { return int(m.latency) }

// LowerCache is the cache level between the primary cache and main
// memory, in either of the paper's organizations:
//
//   - the unified off-chip secondary cache (L2Config): 4 Mbytes,
//     two-way-set-associative, 64 byte lines, ten cycle (50 ns) hits in
//     the baseline configuration. The requested primary-cache line
//     rides back to the chip over the 2.5 GByte/s processor-to-L2 bus,
//     as do the primary cache's write-backs.
//   - the 4 Mbyte on-chip DRAM cache of section 2.4 (DRAMConfig),
//     backing a 16 Kbyte row-buffer primary cache, with six to eight
//     cycle hits in the paper's sensitivity sweep. Its rows are the
//     row-buffer cache's own lines, so transfers up and write-backs
//     stay on chip and cost no bus time.
//
// The bus is the only difference: set for the L2, nil for the DRAM
// cache. Misses fetch one line (64 bytes, or a full 512-byte row) from
// the next level and fill it.
type LowerCache struct {
	array *Array
	hit   Cycle
	bus   *Bus // processor chip <-> L2; nil for the on-chip DRAM cache
	next  Level
	// dirtySpill preserves the dirty flag of lines displaced by warm
	// (untimed) touches, which write back nothing; resident lines keep
	// their dirty flag in the tag array slots. Empty in steady state.
	dirtySpill map[uint64]struct{}

	accesses   Counter
	misses     Counter
	writebacks Counter
}

// L2Config sizes the off-chip secondary cache.
type L2Config struct {
	Bytes     int `json:"bytes"`      // capacity (paper: 4 MB)
	LineBytes int `json:"line_bytes"` // line size (paper: 64 B)
	Assoc     int `json:"assoc"`      // associativity (paper: 2)
	HitCycles int `json:"hit_cycles"` // hit latency in processor cycles (paper: 10 at 200 MHz)
}

// DefaultL2Config returns the paper's secondary cache at a given hit
// latency in cycles.
func DefaultL2Config(hitCycles int) L2Config {
	return L2Config{Bytes: 4 << 20, LineBytes: 64, Assoc: 2, HitCycles: hitCycles}
}

// DRAMConfig sizes the on-chip DRAM cache.
type DRAMConfig struct {
	Bytes     int `json:"bytes"`      // capacity (paper: 4 MB)
	RowBytes  int `json:"row_bytes"`  // row size, also the fetch unit from memory (paper: 512 B)
	Assoc     int `json:"assoc"`      // associativity of the DRAM cache tags
	HitCycles int `json:"hit_cycles"` // hit latency in processor cycles (paper: 6-8)
}

// DefaultDRAMConfig returns the paper's DRAM cache at a given hit time.
func DefaultDRAMConfig(hitCycles int) DRAMConfig {
	return DRAMConfig{Bytes: 4 << 20, RowBytes: 512, Assoc: 2, HitCycles: hitCycles}
}

// NewLowerCache builds a lower-level cache of the given geometry and
// hit time in front of next (main memory): the off-chip L2 when bus is
// its processor-chip bus, the on-chip DRAM cache when bus is nil.
func NewLowerCache(bytes, lineBytes, assoc, hitCycles int, bus *Bus, next Level) (*LowerCache, error) {
	c := &LowerCache{hit: Cycle(hitCycles), bus: bus, next: next}
	if hitCycles <= 0 {
		return nil, errNonPositive(c.name()+" hit latency", hitCycles)
	}
	if next == nil {
		return nil, errNonPositive(c.name()+" next level", 0)
	}
	a, err := NewArray(bytes, lineBytes, assoc)
	if err != nil {
		return nil, err
	}
	c.array = a
	return c, nil
}

// name is the level's name in errors: L2 or DRAM.
func (c *LowerCache) name() string {
	if c.bus != nil {
		return "L2"
	}
	return "DRAM"
}

// Access implements Level. The lookup takes the hit time; on a miss
// the line is then fetched from the next level and filled. The
// requested block crosses the chip bus, when there is one, after that.
func (c *LowerCache) Access(now Cycle, addr uint64, lineBytes int) Cycle {
	c.accesses.Inc()
	ready := now + c.hit
	if !c.array.Lookup(addr) {
		c.misses.Inc()
		ready = c.next.Access(ready, addr, c.array.LineBytes())
		c.fill(now, addr)
	}
	if c.bus != nil {
		return c.bus.Reserve(ready, lineBytes)
	}
	return ready
}

// takeSpill reports whether addr's line had its dirty flag parked in
// the spill map, removing it.
func (c *LowerCache) takeSpill(addr uint64) bool {
	if len(c.dirtySpill) == 0 {
		return false
	}
	line := lineIndex(addr, c.array.LineBytes())
	if _, ok := c.dirtySpill[line]; !ok {
		return false
	}
	delete(c.dirtySpill, line)
	return true
}

// fill inserts addr's line, writing a displaced dirty line to the next
// level.
func (c *LowerCache) fill(now Cycle, addr uint64) {
	evicted, _, evDirty, did := c.array.FillState(addr, 0, c.takeSpill(addr))
	if did && evDirty {
		c.writebacks.Inc()
		c.next.WriteBack(now+c.hit, evicted, c.array.LineBytes())
	}
}

// WriteBack implements Level: the primary cache's dirty line crosses
// the chip bus, if any, and updates (write-allocating if needed) this
// cache, whose own displaced dirty lines continue to memory.
func (c *LowerCache) WriteBack(now Cycle, addr uint64, bytes int) {
	if c.bus != nil {
		c.bus.Reserve(now, bytes)
	}
	if !c.array.Lookup(addr) {
		c.fill(now, addr)
	}
	c.array.MarkDirty(addr)
}

// WarmTouch brings addr's line into the tag array without charging time
// or statistics, reporting whether it was already present. A warm
// eviction writes back nothing, but a displaced dirty line's flag parks
// in the spill map so a later refill stays write-back correct.
func (c *LowerCache) WarmTouch(addr uint64) bool {
	if c.array.Lookup(addr) {
		return true
	}
	evicted, _, evDirty, did := c.array.FillState(addr, 0, c.takeSpill(addr))
	if did && evDirty {
		if c.dirtySpill == nil {
			c.dirtySpill = make(map[uint64]struct{}, 8)
		}
		c.dirtySpill[lineIndex(evicted, c.array.LineBytes())] = struct{}{}
	}
	return false
}

// Accesses returns the number of requests.
func (c *LowerCache) Accesses() uint64 { return c.accesses.Value() }

// Misses returns the number of misses.
func (c *LowerCache) Misses() uint64 { return c.misses.Value() }

// Writebacks returns the number of dirty lines written to memory.
func (c *LowerCache) Writebacks() uint64 { return c.writebacks.Value() }

// FixedLatency is a Level with a constant response time and no state; it
// exists for unit tests and for idealized experiments (e.g. a perfect
// next level when isolating primary-cache behaviour).
type FixedLatency struct {
	Cycles Cycle

	accesses   Counter
	writebacks Counter
}

// Access implements Level.
func (f *FixedLatency) Access(now Cycle, addr uint64, lineBytes int) Cycle {
	f.accesses.Inc()
	return now + f.Cycles
}

// WriteBack implements Level; it only counts.
func (f *FixedLatency) WriteBack(now Cycle, addr uint64, bytes int) {
	f.writebacks.Inc()
}

// Writebacks returns the number of write-backs received.
func (f *FixedLatency) Writebacks() uint64 { return f.writebacks.Value() }

// Accesses returns the number of requests served.
func (f *FixedLatency) Accesses() uint64 { return f.accesses.Value() }
