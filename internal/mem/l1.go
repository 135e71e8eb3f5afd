package mem

import (
	"fmt"
	"math/bits"
)

// WritePolicy selects how stores propagate below the primary cache.
type WritePolicy int

const (
	// WriteBack marks lines dirty on store and writes them to the next
	// level only on eviction (the policy of the era's primary caches,
	// e.g. the R10000). Evictions of dirty lines occupy the bus below.
	WriteBack WritePolicy = iota
	// WriteThrough sends every store's line to the next level as it
	// drains. Simpler, but it loads the processor-to-L2 bus with store
	// traffic.
	WriteThrough
)

// MarshalText renders the policy by name, so JSON configs read
// "write-back" instead of a bare enum ordinal.
func (p WritePolicy) MarshalText() ([]byte, error) {
	switch p {
	case WriteBack, WriteThrough:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("mem: unknown write policy %d", int(p))
}

// UnmarshalText parses a policy name emitted by MarshalText.
func (p *WritePolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "write-back":
		*p = WriteBack
	case "write-through":
		*p = WriteThrough
	default:
		return fmt.Errorf("mem: unknown write policy %q (want write-back or write-through)", text)
	}
	return nil
}

func (p WritePolicy) String() string {
	switch p {
	case WriteBack:
		return "write-back"
	case WriteThrough:
		return "write-through"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(p))
	}
}

// L1Config describes the primary data cache.
type L1Config struct {
	Bytes     int        `json:"bytes"`      // capacity, 4 KB .. 1 MB for SRAM, 16 KB for the row-buffer cache
	LineBytes int        `json:"line_bytes"` // line size (paper: 32 B SRAM, 512 B row-buffer)
	Assoc     int        `json:"assoc"`      // associativity (paper: 2)
	HitCycles int        `json:"hit_cycles"` // pipelined hit time in cycles (paper: 1-3 SRAM, 1 row-buffer)
	Ports     PortConfig `json:"ports"`      // port organization
	MSHRs     int        `json:"mshrs"`      // miss status handling registers (paper: 4)
	// Policy selects write-back (default) or write-through stores.
	Policy WritePolicy `json:"policy"`

	// SectorBytes, when non-zero, makes the cache sectored
	// (sub-blocked): tags cover whole lines of LineBytes, but each
	// sector of SectorBytes has its own valid bit and misses fetch only
	// the missing sector. This is the classic remedy for long-line
	// caches like the 512-byte row-buffer cache — it keeps the tag
	// economy of long lines without their fetch bandwidth, at the cost
	// of losing their prefetch effect. Must divide LineBytes and allow
	// at most 64 sectors per line.
	SectorBytes int `json:"sector_bytes,omitempty"`

	// VictimCache adds a small fully-associative victim buffer between
	// the primary cache and the next level [Joup90]: lines evicted from
	// the primary cache park there, and a miss that hits the victim
	// buffer swaps the line back in for one extra cycle instead of
	// paying the full miss. The paper cites this as the line buffer's
	// ancestor; it is provided for the comparison ablation.
	VictimCache bool `json:"victim_cache,omitempty"`
	// VictimEntries sizes the victim buffer (default 8 lines).
	VictimEntries int `json:"victim_entries,omitempty"`

	// LineBuffer enables the level-zero line buffer in the load/store
	// unit. LineBufferEntries/BlockBytes default to the paper's 32
	// entries of 32 bytes when zero.
	LineBuffer            bool `json:"line_buffer"`
	LineBufferEntries     int  `json:"line_buffer_entries,omitempty"`
	LineBufferBlockBytes  int  `json:"line_buffer_block_bytes,omitempty"`
	StoreBufferEntries    int  `json:"store_buffer_entries,omitempty"` // depth of the retired-store buffer (default 64)
	maxStoreDrainPerCycle int  // 0 = unlimited (bounded by ports)
}

// DefaultL1Config returns the paper's baseline primary data cache: a
// two-way-set-associative cache with 32-byte lines and four MSHRs.
func DefaultL1Config(bytes, hitCycles int, ports PortConfig) L1Config {
	return L1Config{
		Bytes:     bytes,
		LineBytes: 32,
		Assoc:     2,
		HitCycles: hitCycles,
		Ports:     ports,
		MSHRs:     4,
	}
}

// LoadResult describes a granted load access.
type LoadResult struct {
	// Done is the cycle at which the loaded data is available to
	// dependent instructions (excludes the CPU's address calculation).
	Done Cycle
	// LineBufferHit is true when the load was satisfied by the line
	// buffer without occupying a cache port.
	LineBufferHit bool
	// Miss is true when the load missed in the primary cache (either a
	// new miss or a merge into an outstanding one).
	Miss bool
}

// spillState preserves the dirty flag and sector bitmap of a line that
// left the tag arrays while its state still mattered — either a warm
// (untimed) eviction, or a store completing after its line was evicted
// (possible because the store buffer drains behind an MSHR miss). The
// hot path never touches the map: resident lines keep this state packed
// in the Array slots, so the map stays empty in steady state.
type spillState struct {
	meta  uint64
	dirty bool
}

// L1Cache is the lockup-free primary data cache plus the store buffer
// that decouples retired stores from port availability.
//
// Dirty flags and sector-valid bitmaps live in the tag array slots (and
// victim-buffer slots) themselves; the spill map catches only the rare
// off-array residue described at spillState. This keeps TryLoad and
// DrainStores free of map traffic and heap allocation.
type L1Cache struct {
	cfg      L1Config
	array    *Array
	ports    *portScheduler
	mshrs    *MSHRFile
	lb       *LineBuffer
	next     Level
	victim   *Array // optional victim buffer
	sectored bool
	spill    map[uint64]spillState // keyed by line index; nil until first spill

	// storeBuf is a fixed-capacity ring of buffered store addresses.
	// sbBlkCnt counts buffered stores by hashed 8-byte block so the
	// per-load forwarding probe can skip the ring scan when no buffered
	// store can match (the common case).
	storeBuf  []uint64
	storeHead int
	storeLen  int
	sbBlkCnt  [64]uint8

	loads         Counter
	loadMisses    Counter
	stores        Counter
	storeMisses   Counter
	lbHits        Counter
	victimHits    Counter
	retries       Counter
	mshrStalls    Counter
	storeQFullEvt Counter
	writebacks    Counter
}

// NewL1Cache builds the primary data cache in front of next.
func NewL1Cache(cfg L1Config, next Level) (*L1Cache, error) {
	if cfg.HitCycles <= 0 {
		return nil, errNonPositive("L1 hit latency", cfg.HitCycles)
	}
	if cfg.MSHRs <= 0 {
		return nil, errNonPositive("L1 MSHR count", cfg.MSHRs)
	}
	if next == nil {
		return nil, fmt.Errorf("mem: L1 requires a next level")
	}
	sectored := cfg.SectorBytes != 0
	if sectored {
		if !isPow2(cfg.SectorBytes) || cfg.LineBytes%cfg.SectorBytes != 0 {
			return nil, fmt.Errorf("mem: sector size %d must be a power of two dividing the %d-byte line", cfg.SectorBytes, cfg.LineBytes)
		}
		if cfg.LineBytes/cfg.SectorBytes > 64 {
			return nil, fmt.Errorf("mem: %d sectors per line exceeds the 64-sector bitmap", cfg.LineBytes/cfg.SectorBytes)
		}
	}
	// Only a sectored cache has per-line metadata: its sector bitmaps.
	array, err := newArray(cfg.Bytes, cfg.LineBytes, cfg.Assoc, sectored)
	if err != nil {
		return nil, err
	}
	ports, err := newPortScheduler(cfg.Ports, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	l1 := &L1Cache{cfg: cfg, array: array, ports: ports, mshrs: NewMSHRFile(cfg.MSHRs), next: next, sectored: sectored}
	if cfg.LineBuffer {
		entries := cfg.LineBufferEntries
		if entries == 0 {
			entries = DefaultLineBufferEntries
		}
		block := cfg.LineBufferBlockBytes
		if block == 0 {
			block = DefaultLineBufferBlockBytes
		}
		l1.lb, err = NewLineBuffer(entries, block)
		if err != nil {
			return nil, err
		}
	}
	if cfg.VictimCache {
		entries := cfg.VictimEntries
		if entries == 0 {
			entries = 8
		}
		l1.victim, err = NewArray(entries*cfg.LineBytes, cfg.LineBytes, entries)
		if err != nil {
			return nil, err
		}
	}
	depth := cfg.StoreBufferEntries
	if depth == 0 {
		depth = 64
	}
	l1.storeBuf = make([]uint64, depth)
	return l1, nil
}

// Config returns the cache's configuration.
func (c *L1Cache) Config() L1Config { return c.cfg }

// LineBuffer returns the line buffer, or nil when disabled.
func (c *L1Cache) LineBuffer() *LineBuffer { return c.lb }

// line returns the line index of addr in this cache's geometry.
func (c *L1Cache) line(addr uint64) uint64 { return lineIndex(addr, c.cfg.LineBytes) }

// mshrKey returns the miss-tracking granule for addr: the line index,
// or the sector index in sectored mode (distinct sectors of one line
// are independent misses there).
func (c *L1Cache) mshrKey(addr uint64) uint64 {
	if c.sectored {
		return lineIndex(addr, c.cfg.SectorBytes)
	}
	return c.line(addr)
}

// takeSpill removes and returns any spilled state for addr's line.
func (c *L1Cache) takeSpill(addr uint64) (spillState, bool) {
	if len(c.spill) == 0 {
		return spillState{}, false
	}
	line := c.line(addr)
	sp, ok := c.spill[line]
	if ok {
		delete(c.spill, line)
	}
	return sp, ok
}

// TryLoad attempts to start a load to addr at cycle now. When resources
// (a port, bank, or MSHR) are unavailable it returns ok=false and the
// caller must retry on a later cycle. On success the result carries the
// data-ready cycle.
//
// Lookup order matters for correctness of the timing model:
//  1. the line buffer can satisfy the load in one cycle without a port,
//     but only for blocks whose fill has completed;
//  2. an outstanding miss to the same line merges into its MSHR (the
//     load still occupies a port to probe the cache and discover this);
//  3. a tag hit costs the pipelined hit time;
//  4. a fresh miss needs a free MSHR and goes to the next level.
func (c *L1Cache) TryLoad(now Cycle, addr uint64) (LoadResult, bool) {
	if c.lb != nil && c.lb.Lookup(now, addr) {
		c.loads.Inc()
		c.lbHits.Inc()
		return LoadResult{Done: now + 1, LineBufferHit: true}, true
	}
	key := c.mshrKey(addr)
	if done, merged := c.mshrs.Lookup(now, key); merged {
		if !c.ports.tryLoad(now, addr) {
			c.retries.Inc()
			return LoadResult{}, false
		}
		c.loads.Inc()
		c.loadMisses.Inc()
		c.fillLineBuffer(done, addr)
		return LoadResult{Done: done, Miss: true}, true
	}
	if base, slot, _ := c.array.find(addr); slot >= 0 {
		if !c.ports.tryLoad(now, addr) {
			c.retries.Inc()
			return LoadResult{}, false
		}
		c.array.promote(base, slot) // line is now at base
		c.loads.Inc()
		if c.sectored && c.array.meta[base]&c.sectorBit(addr) == 0 {
			// Sector miss on a resident line: fetch just the sector.
			if !c.mshrs.HasFree(now) {
				c.mshrStalls.Inc()
				return LoadResult{}, false
			}
			c.loadMisses.Inc()
			done := c.next.Access(now+Cycle(c.cfg.HitCycles), addr, c.cfg.SectorBytes)
			c.mshrs.Allocate(now, key, done)
			c.array.meta[base] |= c.sectorBit(addr)
			c.fillLineBuffer(done, addr)
			return LoadResult{Done: done, Miss: true}, true
		}
		done := now + Cycle(c.cfg.HitCycles)
		c.fillLineBuffer(done, addr)
		return LoadResult{Done: done}, true
	}
	// A victim-buffer hit swaps the line back into the cache for one
	// extra cycle instead of paying the full miss.
	if c.victim != nil && c.victim.Probe(addr) {
		if !c.ports.tryLoad(now, addr) {
			c.retries.Inc()
			return LoadResult{}, false
		}
		_, wasDirty, _ := c.victim.InvalidateState(addr)
		c.loads.Inc()
		c.victimHits.Inc()
		c.fill(now, addr, 0, wasDirty)
		done := now + Cycle(c.cfg.HitCycles) + 1
		c.fillLineBuffer(done, addr)
		return LoadResult{Done: done}, true
	}
	// Fresh miss: require an MSHR before burning a port.
	if !c.mshrs.HasFree(now) {
		c.mshrStalls.Inc()
		return LoadResult{}, false
	}
	if !c.ports.tryLoad(now, addr) {
		c.retries.Inc()
		return LoadResult{}, false
	}
	c.loads.Inc()
	c.loadMisses.Inc()
	// The miss is detected after the pipelined lookup completes. A
	// sectored cache fetches only the missing sector; a conventional
	// cache fetches the whole line.
	fetch := c.cfg.LineBytes
	var meta uint64
	if c.sectored {
		fetch = c.cfg.SectorBytes
		meta = c.sectorBit(addr)
	}
	done := c.next.Access(now+Cycle(c.cfg.HitCycles), addr, fetch)
	c.mshrs.Allocate(now, key, done)
	c.fill(now, addr, meta, false)
	c.fillLineBuffer(done, addr)
	return LoadResult{Done: done, Miss: true}, true
}

// sectorBit returns the bitmask of addr's sector within its line. Line
// and sector sizes are validated powers of two, so the offset math is
// mask-and-shift.
func (c *L1Cache) sectorBit(addr uint64) uint64 {
	return 1 << (addr & uint64(c.cfg.LineBytes-1) >> uint(bits.TrailingZeros(uint(c.cfg.SectorBytes))))
}

// fill inserts addr's line into the tag array with the given initial
// sector bitmap and dirty flag. A displaced line parks in the victim
// buffer when one is configured (retaining its dirty state, dropping
// its sector bitmap — a swap-in refetches sectors); otherwise — or when
// the victim buffer itself displaces a line — dirty data is written
// back to the next level.
func (c *L1Cache) fill(now Cycle, addr uint64, meta uint64, dirty bool) {
	if sp, ok := c.takeSpill(addr); ok {
		// The line went dirty while off-array; it is dirty on arrival.
		// Any stale sector bitmap is overwritten by the fresh fetch.
		dirty = dirty || sp.dirty
	}
	evicted, _, evDirty, did := c.array.FillState(addr, meta, dirty)
	if !did {
		return
	}
	if c.victim != nil {
		evicted, _, evDirty, did = c.victim.FillState(evicted, 0, evDirty)
		if !did {
			return
		}
	}
	if evDirty {
		c.writebacks.Inc()
		c.next.WriteBack(now+Cycle(c.cfg.HitCycles), evicted, c.cfg.LineBytes)
	}
}

func (c *L1Cache) fillLineBuffer(availAt Cycle, addr uint64) {
	if c.lb != nil {
		c.lb.Fill(availAt, addr)
	}
}

// EnqueueStore buffers a retired store for later drain into the cache.
// It reports false when the store buffer is full, in which case the CPU
// must stall retirement and retry.
func (c *L1Cache) EnqueueStore(addr uint64) bool {
	if c.storeLen == len(c.storeBuf) {
		c.storeQFullEvt.Inc()
		return false
	}
	i := c.storeHead + c.storeLen
	if i >= len(c.storeBuf) {
		i -= len(c.storeBuf)
	}
	c.storeBuf[i] = addr
	c.storeLen++
	c.sbBlkCnt[(addr>>3)&63]++
	return true
}

// StoreBufferLen returns the number of buffered stores.
func (c *L1Cache) StoreBufferLen() int { return c.storeLen }

// StoreBufferProbe reports whether a buffered store targets the same
// 8-byte block as addr; the load/store unit forwards from it if so.
func (c *L1Cache) StoreBufferProbe(addr uint64) bool {
	block := addr >> 3
	if c.sbBlkCnt[block&63] == 0 {
		return false
	}
	i := c.storeHead
	for n := 0; n < c.storeLen; n++ {
		if c.storeBuf[i]>>3 == block {
			return true
		}
		i++
		if i == len(c.storeBuf) {
			i = 0
		}
	}
	return false
}

// DrainStores writes buffered stores into whatever port capacity loads
// left idle at cycle now. It is called once per cycle, after all loads
// have made their attempts, matching the paper's assumption that stores
// are buffered and bypassed so that they never delay loads. Store misses
// write-allocate through an MSHR; a store that cannot get its resources
// simply stays buffered.
func (c *L1Cache) DrainStores(now Cycle) {
	drained := 0
	for c.storeLen > 0 {
		if c.cfg.maxStoreDrainPerCycle > 0 && drained >= c.cfg.maxStoreDrainPerCycle {
			return
		}
		addr := c.storeBuf[c.storeHead]
		key := c.mshrKey(addr)
		if _, merged := c.mshrs.Lookup(now, key); merged {
			// Line already in flight; the store merges with the fill.
			if !c.ports.tryStore(now, addr) {
				return
			}
			c.markWritten(now, addr)
		} else if base, slot, _ := c.array.find(addr); slot >= 0 {
			if !c.ports.tryStore(now, addr) {
				return
			}
			c.array.promote(base, slot) // line is now at base
			if c.sectored && c.array.meta[base]&c.sectorBit(addr) == 0 {
				// Sector write-allocate on a resident line.
				if !c.mshrs.HasFree(now) {
					return
				}
				done := c.next.Access(now+Cycle(c.cfg.HitCycles), addr, c.cfg.SectorBytes)
				c.mshrs.Allocate(now, key, done)
				c.array.meta[base] |= c.sectorBit(addr)
				c.storeMisses.Inc()
			}
			c.stores.Inc()
			if c.cfg.Policy == WriteThrough {
				c.next.WriteBack(now, addr, 8)
			} else {
				c.array.dirty[base] = true
			}
		} else if c.victim != nil && c.victim.Probe(addr) {
			// Swap the line back in from the victim buffer.
			if !c.ports.tryStore(now, addr) {
				return
			}
			_, wasDirty, _ := c.victim.InvalidateState(addr)
			c.fill(now, addr, 0, wasDirty)
			c.victimHits.Inc()
			c.stores.Inc()
			c.markWritten(now, addr)
		} else {
			// Write-allocate miss.
			if !c.mshrs.HasFree(now) {
				return
			}
			if !c.ports.tryStore(now, addr) {
				return
			}
			fetch := c.cfg.LineBytes
			var meta uint64
			if c.sectored {
				fetch = c.cfg.SectorBytes
				meta = c.sectorBit(addr)
			}
			done := c.next.Access(now+Cycle(c.cfg.HitCycles), addr, fetch)
			c.mshrs.Allocate(now, key, done)
			c.fill(now, addr, meta, false)
			c.stores.Inc()
			c.storeMisses.Inc()
			c.markWritten(now, addr)
		}
		c.storeHead++
		if c.storeHead == len(c.storeBuf) {
			c.storeHead = 0
		}
		c.storeLen--
		c.sbBlkCnt[(addr>>3)&63]--
		drained++
	}
}

// Loads returns the number of loads satisfied (any path).
func (c *L1Cache) Loads() uint64 { return c.loads.Value() }

// LoadMisses returns loads that missed in the cache (primary or merged),
// excluding line-buffer hits.
func (c *L1Cache) LoadMisses() uint64 { return c.loadMisses.Value() }

// LineBufferHits returns loads satisfied by the line buffer.
func (c *L1Cache) LineBufferHits() uint64 { return c.lbHits.Value() }

// VictimHits returns loads satisfied by the victim buffer.
func (c *L1Cache) VictimHits() uint64 { return c.victimHits.Value() }

// PortRetries returns load attempts refused for port/bank conflicts.
func (c *L1Cache) PortRetries() uint64 { return c.retries.Value() }

// MSHRStalls returns load attempts refused because the MSHRs were full.
func (c *L1Cache) MSHRStalls() uint64 { return c.mshrStalls.Value() }

// BankConflicts returns load attempts refused on a busy bank.
func (c *L1Cache) BankConflicts() uint64 { return c.ports.BankConflicts() }

// markWritten records a completed store: under write-back the line goes
// dirty; under write-through the stored data (8 bytes) crosses the bus
// to the next level immediately. A store whose line has already left
// both arrays (evicted behind an outstanding miss) records its dirty
// state in the spill map so the eventual refill stays write-back
// correct.
func (c *L1Cache) markWritten(now Cycle, addr uint64) {
	if c.cfg.Policy == WriteThrough {
		c.next.WriteBack(now, addr, 8)
		return
	}
	if c.array.MarkDirty(addr) {
		return
	}
	if c.victim != nil && c.victim.MarkDirty(addr) {
		return
	}
	line := c.line(addr)
	if c.spill == nil {
		c.spill = make(map[uint64]spillState, 8)
	}
	sp := c.spill[line]
	sp.dirty = true
	c.spill[line] = sp
}

// Writebacks returns the number of dirty lines written to the next
// level on eviction.
func (c *L1Cache) Writebacks() uint64 { return c.writebacks.Value() }

// DirtyLines returns the current number of dirty lines.
func (c *L1Cache) DirtyLines() int {
	n := c.array.CountDirty()
	if c.victim != nil {
		n += c.victim.CountDirty()
	}
	for _, sp := range c.spill {
		if sp.dirty {
			n++
		}
	}
	return n
}

// StoresDrained returns stores written into the cache.
func (c *L1Cache) StoresDrained() uint64 { return c.stores.Value() }

// StoreMisses returns drained stores that write-allocated.
func (c *L1Cache) StoreMisses() uint64 { return c.storeMisses.Value() }

// MSHRs exposes the MSHR file for statistics.
func (c *L1Cache) MSHRs() *MSHRFile { return c.mshrs }

// CheckInvariants cross-checks the cache's redundant bookkeeping: the
// store buffer's block-count filter against a recount of the ring
// (silent drift there corrupts store-to-load forwarding), occupancy
// within capacity, and the MSHR file, line buffer, and port scheduler
// invariants. It allocates nothing but is O(capacity) in the small
// structures, so it is called only from checkers, never the hot path.
func (c *L1Cache) CheckInvariants() error {
	if c.storeLen < 0 || c.storeLen > len(c.storeBuf) {
		return fmt.Errorf("mem: store buffer occupancy %d outside [0,%d]", c.storeLen, len(c.storeBuf))
	}
	var blk [64]uint8
	i := c.storeHead
	for n := 0; n < c.storeLen; n++ {
		blk[(c.storeBuf[i]>>3)&63]++
		if i++; i == len(c.storeBuf) {
			i = 0
		}
	}
	if blk != c.sbBlkCnt {
		return fmt.Errorf("mem: store buffer block-count filter diverged from ring recount")
	}
	if err := c.mshrs.CheckInvariants(); err != nil {
		return err
	}
	if c.lb != nil {
		if err := c.lb.CheckInvariants(); err != nil {
			return err
		}
	}
	return c.ports.checkInvariants()
}

// WarmTouch brings addr's line into the tag array without charging time
// or statistics. It reports whether the line was already present. Used
// to pre-warm caches to steady state before a measured run, standing in
// for the >100M-instruction runs of the original study.
//
// Warm evictions bypass the victim buffer and write back nothing, but
// they must not lose state: a displaced line's dirty flag and sector
// bitmap park in the spill map and are folded back in if the line
// returns.
func (c *L1Cache) WarmTouch(addr uint64) bool {
	var bit uint64
	if c.sectored {
		bit = c.sectorBit(addr)
	}
	if base, slot, _ := c.array.find(addr); slot >= 0 {
		c.array.promote(base, slot)
		if c.sectored {
			c.array.meta[base] |= bit
		}
		return true
	}
	meta, dirty := bit, false
	if sp, ok := c.takeSpill(addr); ok {
		meta |= sp.meta
		dirty = sp.dirty
	}
	evicted, evMeta, evDirty, did := c.array.FillState(addr, meta, dirty)
	if did && (evDirty || evMeta != 0) {
		if c.spill == nil {
			c.spill = make(map[uint64]spillState, 8)
		}
		c.spill[c.line(evicted)] = spillState{meta: evMeta, dirty: evDirty}
	}
	return false
}
