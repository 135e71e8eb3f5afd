// Package check is the simulator's correctness subsystem. It validates
// the cycle-level machine three independent ways:
//
//   - a golden reference model (Golden): a trivially simple in-order,
//     single-issue core over a functional cache hierarchy, run
//     differentially against the out-of-order pipeline on the same
//     generated trace (RunDifferential) and required to agree exactly
//     on every architectural event total;
//   - cycle-level invariant checkers (Invariants): installed on the
//     core via cpu.SetChecker, they verify at every cycle that the ROB
//     retires in order, store-to-load forwarding only crosses from
//     older stores, MSHRs never leak or exceed capacity, per-cycle
//     port grants never exceed the configured organization, and the
//     line buffer and store-buffer filters stay consistent;
//   - a recorder (Recorder) that captures the out-of-order core's
//     retired stream and replays it through the same functional
//     hierarchy the golden model uses, making exact miss-count
//     agreement decidable despite the two machines' wildly different
//     timing.
//
// The package deliberately does not import internal/sim: sim wires
// Invariants into RunOpts.Check, so the dependency points this way.
package check

import (
	"fmt"

	"hbcache/internal/mem"
)

// funcLine is one resident line of a functional cache set.
type funcLine struct {
	line  uint64
	dirty bool
}

// funcCache is a deliberately simple set-associative LRU tag store.
// It is written independently of internal/mem.Array — sets are small
// slices searched linearly and reordered most-recently-used first —
// so the reference model and the timing model cannot share a bug. It
// mirrors only Array's geometry semantics: set = line mod sets,
// true-LRU replacement, write-back with write-allocate.
type funcCache struct {
	lineBytes uint64
	assoc     int
	sets      [][]funcLine
	misses    uint64
}

func newFuncCache(totalBytes, lineBytes, assoc int) (*funcCache, error) {
	if totalBytes <= 0 || lineBytes <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("check: non-positive cache geometry %d/%d/%d", totalBytes, lineBytes, assoc)
	}
	lines := totalBytes / lineBytes
	if lines*lineBytes != totalBytes || lines%assoc != 0 {
		return nil, fmt.Errorf("check: capacity %d not divisible into %d-byte %d-way sets", totalBytes, lineBytes, assoc)
	}
	nsets := lines / assoc
	c := &funcCache{
		lineBytes: uint64(lineBytes),
		assoc:     assoc,
		sets:      make([][]funcLine, nsets),
	}
	return c, nil
}

func (c *funcCache) set(addr uint64) (int, uint64) {
	line := addr / c.lineBytes
	return int(line % uint64(len(c.sets))), line
}

// evicted describes a line displaced by a fill.
type evicted struct {
	valid bool
	dirty bool
	addr  uint64 // base address of the displaced line
}

// access performs one load (store=false) or store (store=true),
// counting a miss and write-allocating on absence. It returns whether
// the access missed and any line the fill displaced.
func (c *funcCache) access(addr uint64, store bool) (bool, evicted) {
	si, line := c.set(addr)
	s := c.sets[si]
	for i := range s {
		if s[i].line == line {
			hit := s[i]
			hit.dirty = hit.dirty || store
			copy(s[1:i+1], s[:i])
			s[0] = hit
			return false, evicted{}
		}
	}
	c.misses++
	return true, c.fill(si, line, store)
}

// touchDirty installs addr's line dirty without counting a miss — the
// functional analogue of a write-back arriving from the level above
// (LowerCache.WriteBack fills without charging a miss). Present lines are
// promoted and marked dirty.
func (c *funcCache) touchDirty(addr uint64) evicted {
	si, line := c.set(addr)
	s := c.sets[si]
	for i := range s {
		if s[i].line == line {
			hit := s[i]
			hit.dirty = true
			copy(s[1:i+1], s[:i])
			s[0] = hit
			return evicted{}
		}
	}
	return c.fill(si, line, true)
}

// fill inserts line at MRU, evicting LRU from a full set.
func (c *funcCache) fill(si int, line uint64, dirty bool) evicted {
	s := c.sets[si]
	var ev evicted
	if len(s) == c.assoc {
		last := s[len(s)-1]
		ev = evicted{valid: true, dirty: last.dirty, addr: last.line * c.lineBytes}
		copy(s[1:], s[:len(s)-1])
		s[0] = funcLine{line: line, dirty: dirty}
		return ev
	}
	s = append(s, funcLine{})
	copy(s[1:], s[:len(s)-1])
	s[0] = funcLine{line: line, dirty: dirty}
	c.sets[si] = s
	return ev
}

// Misses returns the cumulative miss count.
func (c *funcCache) Misses() uint64 { return c.misses }

// funcHier is the two-level functional hierarchy both the golden model
// and the retired-stream replay run over: the L1 geometry plus the
// second level (off-chip L2 or on-chip DRAM cache) from the same
// SystemConfig the timing model was built from. Event order mirrors
// the timing model's: on an L1 miss the second level is accessed
// first, then the L1 fill's dirty victim is written back down (where
// it fills the second level without counting a miss, as
// LowerCache.WriteBack does).
type funcHier struct {
	l1 *funcCache
	l2 *funcCache // nil when the config has no second level
}

func newFuncHier(cfg mem.SystemConfig) (*funcHier, error) {
	l1, err := newFuncCache(cfg.L1.Bytes, cfg.L1.LineBytes, cfg.L1.Assoc)
	if err != nil {
		return nil, err
	}
	h := &funcHier{l1: l1}
	switch {
	case cfg.L2 != nil:
		h.l2, err = newFuncCache(cfg.L2.Bytes, cfg.L2.LineBytes, cfg.L2.Assoc)
	case cfg.DRAM != nil:
		h.l2, err = newFuncCache(cfg.DRAM.Bytes, cfg.DRAM.RowBytes, cfg.DRAM.Assoc)
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}

// access applies one memory reference in program order.
func (h *funcHier) access(addr uint64, store bool) {
	miss, ev := h.l1.access(addr, store)
	if miss && h.l2 != nil {
		_, ev2 := h.l2.access(addr, false)
		_ = ev2 // second-level victims go to memory; nothing to model
	}
	if ev.valid && ev.dirty && h.l2 != nil {
		h.l2.touchDirty(ev.addr)
	}
}

// L1Misses returns primary-cache misses (loads and stores).
func (h *funcHier) L1Misses() uint64 { return h.l1.Misses() }

// L2Misses returns second-level misses, zero without a second level.
func (h *funcHier) L2Misses() uint64 {
	if h.l2 == nil {
		return 0
	}
	return h.l2.Misses()
}
