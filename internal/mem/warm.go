package mem

import (
	"fmt"
	"maps"
)

// This file shares the functional prewarm between hierarchies whose
// warm-phase state provably cannot differ: the batch kernel's
// follower lanes and internal/sim's PrewarmCache both capture one
// hierarchy's warm state (the L1's and the lower level's tag arrays
// and spill maps) and apply it to the others.

// WarmStateKey returns a grouping key over the configuration fields
// that can influence the state produced by WarmTouch. Warm touches
// mutate only the tag arrays and the spill maps (never ports, MSHRs,
// line or victim buffers, buses, or counters — see L1Cache.WarmTouch
// and LowerCache.WarmTouch), so two systems whose keys match and that
// receive the same address stream end prewarm in bit-identical warm
// state. Sweep points that differ only in ports, latencies, line
// buffers, or bus bandwidths therefore share one functional prewarm:
// one system replays the stream, CaptureWarm copies its state out, and
// ApplyWarm copies it into the rest.
func WarmStateKey(cfg SystemConfig) string {
	key := fmt.Sprintf("l1:%d/%d/%d/s%d", cfg.L1.Bytes, cfg.L1.LineBytes, cfg.L1.Assoc, cfg.L1.SectorBytes)
	if cfg.L2 != nil {
		key += fmt.Sprintf("|l2:%d/%d/%d", cfg.L2.Bytes, cfg.L2.LineBytes, cfg.L2.Assoc)
	}
	if cfg.DRAM != nil {
		key += fmt.Sprintf("|dram:%d/%d/%d", cfg.DRAM.Bytes, cfg.DRAM.RowBytes, cfg.DRAM.Assoc)
	}
	return key
}

// WarmState is a captured copy of exactly the state WarmTouch mutates:
// the L1 and lower-level tag arrays, the L1 spill map, and the lower
// level's dirty-spill map. The zero value is empty. CaptureWarm
// overwrites it in place, reusing its buffers, so one WarmState holds
// successive captures without reallocating.
type WarmState struct {
	l1, lower  warmArray
	spill      map[uint64]spillState
	lowerSpill map[uint64]struct{}
}

// warmArray is one tag array's warm-mutable content and geometry.
type warmArray struct {
	sets, assoc, lineBytes int
	tags, meta             []uint64
	dirty                  []bool
	fill                   []int32
}

func (w *warmArray) capture(a *Array) {
	w.sets, w.assoc, w.lineBytes = a.sets, a.assoc, a.lineBytes
	w.tags = append(w.tags[:0], a.tags...)
	w.meta = append(w.meta[:0], a.meta...)
	w.dirty = append(w.dirty[:0], a.dirty...)
	w.fill = append(w.fill[:0], a.fill...)
}

// fits reports why w cannot be applied to a, or nil when it can.
func (w *warmArray) fits(name string, a *Array) error {
	if a.sets != w.sets || a.assoc != w.assoc || a.lineBytes != w.lineBytes {
		return fmt.Errorf("mem: %s warm-state geometry mismatch: %d/%d/%d vs captured %d/%d/%d",
			name, a.sets, a.assoc, a.lineBytes, w.sets, w.assoc, w.lineBytes)
	}
	if len(a.meta) != len(w.meta) {
		return fmt.Errorf("mem: %s warm-state sectoring mismatch", name)
	}
	return nil
}

func (w *warmArray) applyTo(a *Array) {
	copy(a.tags, w.tags)
	copy(a.meta, w.meta)
	copy(a.dirty, w.dirty)
	copy(a.fill, w.fill)
}

// captureMap makes *dst a copy of src, reusing *dst's storage.
func captureMap[V any](dst *map[uint64]V, src map[uint64]V) {
	clear(*dst)
	if len(src) == 0 {
		return
	}
	if *dst == nil {
		*dst = make(map[uint64]V, len(src))
	}
	maps.Copy(*dst, src)
}

// cloneMap returns a copy of m that the caller owns, nil when m is
// empty (a spill map stays nil until its first spill).
func cloneMap[V any](m map[uint64]V) map[uint64]V {
	if len(m) == 0 {
		return nil
	}
	return maps.Clone(m)
}

// CaptureWarm copies the hierarchy's warm state into w, overwriting
// what w held before.
func (s *System) CaptureWarm(w *WarmState) {
	w.l1.capture(s.L1.array)
	captureMap(&w.spill, s.L1.spill)
	w.lower.capture(s.Lower.array)
	captureMap(&w.lowerSpill, s.Lower.dirtySpill)
}

// ApplyWarm overwrites the hierarchy's warm state with w, leaving its
// ports, MSHRs, buffers, and counters untouched (they are still in
// their reset state during prewarm). s must have been built from a
// config with the same WarmStateKey as the captured system's; both
// arrays' geometries are validated before anything is overwritten. w
// is only read, so several hierarchies may apply it at once.
func (s *System) ApplyWarm(w *WarmState) error {
	if err := w.l1.fits("L1", s.L1.array); err != nil {
		return err
	}
	if err := w.lower.fits(s.Lower.name(), s.Lower.array); err != nil {
		return err
	}
	w.l1.applyTo(s.L1.array)
	s.L1.spill = cloneMap(w.spill)
	w.lower.applyTo(s.Lower.array)
	s.Lower.dirtySpill = cloneMap(w.lowerSpill)
	return nil
}
