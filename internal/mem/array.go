package mem

import (
	"fmt"
	"math/bits"
)

// Array is a set-associative cache tag array with true-LRU replacement.
// It tracks presence only (the simulator never models data values), so a
// single Array serves every cache level in the hierarchy.
//
// Storage is flat and allocation-free after construction: each set owns
// a fixed assoc-sized window of the tags slice, ordered most- to
// least-recently used, with the current fill recorded per set. Each line
// slot also carries a dirty flag and, in an array built with metadata
// (the sectored L1's), a 64-bit metadata word holding the sector valid
// bitmap; both travel with the tag through promotions, fills and
// evictions — this replaces the per-cache side maps that used to shadow
// the array and allocate on the hot path. Arrays without metadata (every
// other level) allocate no meta words: a 4 MB L2 would otherwise carry
// 512 KB of zeros.
type Array struct {
	sets      int
	assoc     int
	lineBytes int
	setMask   uint64
	setShift  uint8 // log2(sets); sets is validated a power of two

	// tags[set*assoc : set*assoc+fill[set]] are the resident tags of a
	// set, MRU first. meta and dirty are parallel per-slot payload; meta
	// is nil in an array built without metadata.
	tags  []uint64
	meta  []uint64
	dirty []bool
	fill  []int32
}

// NewArray returns an array of the given total capacity, line size and
// associativity. Capacity must be a multiple of lineBytes*assoc and the
// set count must be a power of two (as in every design the paper
// considers). The array keeps no per-line metadata: FillState ignores
// its meta argument and ProbeMeta reports 0.
func NewArray(totalBytes, lineBytes, assoc int) (*Array, error) {
	return newArray(totalBytes, lineBytes, assoc, false)
}

// newArray is NewArray, allocating the per-slot metadata words when
// withMeta is set.
func newArray(totalBytes, lineBytes, assoc int, withMeta bool) (*Array, error) {
	if totalBytes <= 0 || lineBytes <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("mem: non-positive array geometry %d/%d/%d", totalBytes, lineBytes, assoc)
	}
	if !isPow2(lineBytes) {
		return nil, fmt.Errorf("mem: line size %d not a power of two", lineBytes)
	}
	lines := totalBytes / lineBytes
	if lines*lineBytes != totalBytes || lines%assoc != 0 {
		return nil, fmt.Errorf("mem: capacity %d not divisible into %d-byte %d-way sets", totalBytes, lineBytes, assoc)
	}
	sets := lines / assoc
	if !isPow2(sets) {
		return nil, fmt.Errorf("mem: set count %d not a power of two", sets)
	}
	a := &Array{
		sets:      sets,
		assoc:     assoc,
		lineBytes: lineBytes,
		setMask:   uint64(sets - 1),
		setShift:  uint8(bits.TrailingZeros(uint(sets))),
		tags:      make([]uint64, lines),
		dirty:     make([]bool, lines),
		fill:      make([]int32, sets),
	}
	if withMeta {
		a.meta = make([]uint64, lines)
	}
	return a, nil
}

// MustNewArray is NewArray panicking on error, for geometry known valid.
func MustNewArray(totalBytes, lineBytes, assoc int) *Array {
	a, err := NewArray(totalBytes, lineBytes, assoc)
	if err != nil {
		panic(err)
	}
	return a
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Assoc returns the associativity.
func (a *Array) Assoc() int { return a.assoc }

// LineBytes returns the line size.
func (a *Array) LineBytes() int { return a.lineBytes }

func (a *Array) index(addr uint64) (set int, tag uint64) {
	line := lineIndex(addr, a.lineBytes)
	return int(line & a.setMask), line >> a.setShift
}

// find returns the slot of addr within its set's occupied window, or -1.
func (a *Array) find(addr uint64) (base, slot int, tag uint64) {
	set, tag := a.index(addr)
	base = set * a.assoc
	w := a.tags[base : base+int(a.fill[set])]
	for i := range w {
		if w[i] == tag {
			return base, i, tag
		}
	}
	return base, -1, tag
}

// promote moves the hit slot to MRU position, carrying its payload. The
// slot==1 case (the only non-trivial one in a two-way cache) is a plain
// swap.
func (a *Array) promote(base, slot int) {
	if slot == 0 {
		return
	}
	if slot == 1 {
		a.tags[base], a.tags[base+1] = a.tags[base+1], a.tags[base]
		a.dirty[base], a.dirty[base+1] = a.dirty[base+1], a.dirty[base]
		if a.meta != nil {
			a.meta[base], a.meta[base+1] = a.meta[base+1], a.meta[base]
		}
		return
	}
	t, d := a.tags[base+slot], a.dirty[base+slot]
	copy(a.tags[base+1:base+slot+1], a.tags[base:base+slot])
	copy(a.dirty[base+1:base+slot+1], a.dirty[base:base+slot])
	a.tags[base], a.dirty[base] = t, d
	if a.meta != nil {
		m := a.meta[base+slot]
		copy(a.meta[base+1:base+slot+1], a.meta[base:base+slot])
		a.meta[base] = m
	}
}

// Lookup reports whether addr's line is present and, on a hit, promotes
// it to most recently used.
func (a *Array) Lookup(addr uint64) bool {
	base, slot, _ := a.find(addr)
	if slot < 0 {
		return false
	}
	a.promote(base, slot)
	return true
}

// Probe reports presence without updating recency.
func (a *Array) Probe(addr uint64) bool {
	_, slot, _ := a.find(addr)
	return slot >= 0
}

// ProbeMeta returns addr's line metadata (0 in an array without
// metadata) without updating recency, reporting whether the line is
// present.
func (a *Array) ProbeMeta(addr uint64) (uint64, bool) {
	base, slot, _ := a.find(addr)
	if slot < 0 {
		return 0, false
	}
	if a.meta == nil {
		return 0, true
	}
	return a.meta[base+slot], true
}

// MarkDirty sets addr's line dirty without updating recency, reporting
// whether the line is present.
func (a *Array) MarkDirty(addr uint64) bool {
	base, slot, _ := a.find(addr)
	if slot < 0 {
		return false
	}
	a.dirty[base+slot] = true
	return true
}

// FillState inserts addr's line as most recently used with the given
// payload, evicting the LRU line of a full set; the eviction reports the
// displaced line's base address and payload. Filling a line already
// present promotes it and merges the payload in. An array without
// metadata drops meta and reports evMeta 0.
func (a *Array) FillState(addr uint64, meta uint64, dirty bool) (evicted uint64, evMeta uint64, evDirty bool, didEvict bool) {
	base, slot, tag := a.find(addr)
	if slot >= 0 {
		a.promote(base, slot)
		if a.meta != nil {
			a.meta[base] |= meta
		}
		a.dirty[base] = a.dirty[base] || dirty
		return 0, 0, false, false
	}
	set := base / a.assoc
	n := int(a.fill[set])
	if n < a.assoc {
		n++
		a.fill[set] = int32(n)
	} else {
		last := base + n - 1
		evicted = (a.tags[last]*uint64(a.sets) + uint64(set)) * uint64(a.lineBytes)
		if a.meta != nil {
			evMeta = a.meta[last]
		}
		evDirty = a.dirty[last]
		didEvict = true
	}
	copy(a.tags[base+1:base+n], a.tags[base:base+n-1])
	copy(a.dirty[base+1:base+n], a.dirty[base:base+n-1])
	a.tags[base], a.dirty[base] = tag, dirty
	if a.meta != nil {
		copy(a.meta[base+1:base+n], a.meta[base:base+n-1])
		a.meta[base] = meta
	}
	return evicted, evMeta, evDirty, didEvict
}

// Fill inserts addr's line as most recently used, evicting the LRU line
// of a full set. It returns the evicted line's base address and whether
// an eviction happened. Filling a line that is already present just
// promotes it.
func (a *Array) Fill(addr uint64) (evicted uint64, didEvict bool) {
	evicted, _, _, did := a.FillState(addr, 0, false)
	return evicted, did
}

// InvalidateState removes addr's line if present, returning its payload
// and whether it was resident.
func (a *Array) InvalidateState(addr uint64) (meta uint64, dirty bool, ok bool) {
	base, slot, _ := a.find(addr)
	if slot < 0 {
		return 0, false, false
	}
	set := base / a.assoc
	n := int(a.fill[set])
	if a.meta != nil {
		meta = a.meta[base+slot]
		copy(a.meta[base+slot:base+n-1], a.meta[base+slot+1:base+n])
	}
	dirty = a.dirty[base+slot]
	copy(a.tags[base+slot:base+n-1], a.tags[base+slot+1:base+n])
	copy(a.dirty[base+slot:base+n-1], a.dirty[base+slot+1:base+n])
	a.fill[set] = int32(n - 1)
	return meta, dirty, true
}

// Invalidate removes addr's line if present, reporting whether it was.
func (a *Array) Invalidate(addr uint64) bool {
	_, _, ok := a.InvalidateState(addr)
	return ok
}

// CountDirty returns the number of resident dirty lines.
func (a *Array) CountDirty() int {
	n := 0
	for set := 0; set < a.sets; set++ {
		base := set * a.assoc
		for i := 0; i < int(a.fill[set]); i++ {
			if a.dirty[base+i] {
				n++
			}
		}
	}
	return n
}

// Occupancy returns the number of valid lines.
func (a *Array) Occupancy() int {
	n := 0
	for _, f := range a.fill {
		n += int(f)
	}
	return n
}

// Reset invalidates every line.
func (a *Array) Reset() {
	for i := range a.fill {
		a.fill[i] = 0
	}
}
