package mem

import (
	"cmp"
	"math/bits"
	"slices"
)

// sweepStride is the spacing of the pre-run region sweep's touches,
// from each range's base.
const sweepStride = 32

// Range is one contiguous span of addresses the region sweep covers.
type Range struct {
	Base, Bytes uint64
}

// touches returns the number of sweep touches in r, free of the
// overflow Bytes+sweepStride-1 would risk.
func (r Range) touches() uint64 {
	if r.Bytes == 0 {
		return 0
	}
	return (r.Bytes-1)/sweepStride + 1
}

// Sweep brings the hierarchy to the state WarmTouch leaves after
// touching every 32 bytes of each range in order (TouchSweep).
// On a freshly built hierarchy over ranges that share no line at either
// level it computes that state directly instead (see sweepCold), the
// case every generated workload layout meets; otherwise it makes the
// touches. Either way it polls stop and returns false, the sweep left
// part done, as soon as stop reports true.
func (s *System) Sweep(ranges []Range, stop func() bool) bool {
	if s.cold() && disjoint(ranges, max(s.L1.array.lineBytes, s.Lower.array.lineBytes)) {
		return s.sweepCold(ranges, stop)
	}
	return s.TouchSweep(ranges, stop)
}

// TouchSweep is the region sweep touch by touch: WarmTouch on every
// 32 bytes of each range in order, polling stop every 64 KB.
// It is the reference Sweep's closed form must reproduce.
func (s *System) TouchSweep(ranges []Range, stop func() bool) bool {
	for _, r := range ranges {
		for k := range r.touches() {
			if k%(64<<10/sweepStride) == 0 && stop() {
				return false
			}
			s.WarmTouch(r.Base + k*sweepStride)
		}
	}
	return true
}

// cold reports whether the hierarchy holds no warm state: every tag
// array set empty and both spill maps empty, as NewSystem builds it.
func (s *System) cold() bool {
	return s.L1.array.Occupancy() == 0 && len(s.L1.spill) == 0 &&
		s.Lower.array.Occupancy() == 0 && len(s.Lower.dirtySpill) == 0
}

// disjoint reports whether no two non-empty ranges touch a common
// granule-byte block and none wraps the address space. Then each line
// of either level is touched by one range only, in one unbroken run of
// touches.
func disjoint(ranges []Range, granule int) bool {
	shift := bits.TrailingZeros(uint(granule))
	type span struct{ lo, hi uint64 }
	spans := make([]span, 0, len(ranges))
	for _, r := range ranges {
		if r.Bytes == 0 {
			continue
		}
		end := r.Base + r.Bytes - 1
		if end < r.Base {
			return false
		}
		spans = append(spans, span{r.Base >> shift, end >> shift})
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo <= spans[i-1].hi {
			return false
		}
	}
	return true
}

// sweepCold is Sweep's closed form. By the LRU stack property, each set
// of a cold true-LRU array ends holding the last assoc distinct lines
// that reached it, most recent first. With every line's touches in one
// unbroken run (disjoint), the sweep reaches the L1 with each touched
// line once, and the lower level with each L1 line's first touch, the
// rest being L1 hits. So the walk goes newest first, one L1 line at a
// time, appending each line at its set's LRU end while the set has
// room, and stops once every set of both levels is full. Once the L1
// is full the walk steps by the larger of the two line sizes: every L1
// line within one lower line reaches the lower level as that line.
// Warm touches never set a dirty flag, so every slot is clean and the
// lower level's dirty-spill map stays empty.
//
// A sectored L1 ORs each line's touched sectors into its metadata, and
// a warm eviction parks that bitmap in the spill map: there every
// touched line that does not stay resident becomes a clean spill entry,
// so the walk covers all the ranges one L1 line at a time.
func (s *System) sweepCold(ranges []Range, stop func() bool) bool {
	l1 := coldFill{a: s.L1.array, open: s.L1.array.sets}
	low := coldFill{a: s.Lower.array, open: s.Lower.array.sets}
	l1Shift := uint(bits.TrailingZeros(uint(l1.a.lineBytes)))
	lowShift := uint(bits.TrailingZeros(uint(low.a.lineBytes)))
	sectored := s.L1.sectored
	var lastLow uint64
	haveLow := false
	polls := uint(0)
	for i := len(ranges) - 1; i >= 0; i-- {
		r := ranges[i]
		for k := r.touches(); k > 0; polls++ {
			toL1 := l1.open > 0 || sectored
			if !toL1 && low.open == 0 {
				return true
			}
			if polls%2048 == 0 && stop() {
				return false
			}
			shift := l1Shift
			if !toL1 {
				shift = max(l1Shift, lowShift)
			}
			// Touches k0..k-1 are the step's run; k0 is its first.
			unit := (r.Base + (k-1)*sweepStride) >> shift
			k0 := uint64(0)
			if start := unit << shift; start > r.Base {
				k0 = (start - r.Base + sweepStride - 1) / sweepStride
			}
			if toL1 {
				var meta uint64
				if sectored {
					for j := k0; j < k; j++ {
						meta |= s.L1.sectorBit(r.Base + j*sweepStride)
					}
				}
				if !l1.add(unit, meta) && sectored {
					if s.L1.spill == nil {
						s.L1.spill = make(map[uint64]spillState, 8)
					}
					s.L1.spill[unit] = spillState{meta: meta}
				}
			}
			if low.open > 0 {
				if ll := (r.Base + k0*sweepStride) >> lowShift; !haveLow || ll != lastLow {
					low.add(ll, 0)
					lastLow, haveLow = ll, true
				}
			}
			k = k0
		}
	}
	return true
}

// coldFill places lines into a cold array from each set's LRU end, in
// the order a newest-first walk meets them. open counts the sets with
// room left.
type coldFill struct {
	a    *Array
	open int
}

// add appends line (a line index) to its set as the next less recently
// used slot, with the given metadata, reporting false when the set is
// already full.
func (f *coldFill) add(line, meta uint64) bool {
	a := f.a
	set := int(line & a.setMask)
	n := int(a.fill[set])
	if n == a.assoc {
		return false
	}
	i := set*a.assoc + n
	a.tags[i], a.dirty[i] = line>>a.setShift, false
	if a.meta != nil {
		a.meta[i] = meta
	}
	if a.fill[set] = int32(n + 1); n+1 == a.assoc {
		f.open--
	}
	return true
}
