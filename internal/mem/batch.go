package mem

import "fmt"

// This file supports the batch simulation kernel (internal/sim's
// RunBatch): building many hierarchies with their tag storage packed
// flat, and sharing the functional prewarm between hierarchies whose
// warm-phase state provably cannot differ.

// WarmStateKey returns a grouping key over the configuration fields
// that can influence the state produced by WarmTouch. Warm touches
// mutate only the tag arrays and the spill maps (never ports, MSHRs,
// line or victim buffers, buses, or counters — see the WarmTouch
// implementations), so two systems whose keys match and that receive
// the same address stream end prewarm in bit-identical warm state.
// Sweep points that differ only in ports, latencies, line buffers, or
// bus bandwidths therefore share one functional prewarm: one system
// replays the stream and the rest copy its state via CopyWarmState.
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

// copyWarmArray copies the warm-mutable content of one tag array into
// another of identical geometry.
func copyWarmArray(name string, dst, src *Array) error {
	if dst.sets != src.sets || dst.assoc != src.assoc || dst.lineBytes != src.lineBytes {
		return fmt.Errorf("mem: %s warm-copy geometry mismatch: %d/%d/%d vs %d/%d/%d",
			name, dst.sets, dst.assoc, dst.lineBytes, src.sets, src.assoc, src.lineBytes)
	}
	copy(dst.tags, src.tags)
	copy(dst.meta, src.meta)
	copy(dst.dirty, src.dirty)
	copy(dst.fill, src.fill)
	return nil
}

func cloneSpill(m map[uint64]spillState) map[uint64]spillState {
	if len(m) == 0 {
		return nil
	}
	out := make(map[uint64]spillState, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func cloneLines(m map[uint64]struct{}) map[uint64]struct{} {
	if len(m) == 0 {
		return nil
	}
	out := make(map[uint64]struct{}, len(m))
	for k := range m {
		out[k] = struct{}{}
	}
	return out
}

// CopyWarmState copies exactly the state WarmTouch mutates — the tag
// arrays and spill maps of every level — from src into dst, leaving
// dst's ports, MSHRs, buffers, and counters untouched (they are still
// in their reset state during prewarm). dst must have been built from
// a config with the same WarmStateKey as src's; geometry is validated
// before anything is overwritten.
func CopyWarmState(dst, src *System) error {
	if (dst.L2 != nil) != (src.L2 != nil) || (dst.DRAM != nil) != (src.DRAM != nil) {
		return fmt.Errorf("mem: warm-copy across different hierarchy shapes")
	}
	if dst.L1.sectored != src.L1.sectored {
		return fmt.Errorf("mem: warm-copy sectoring mismatch")
	}
	if err := copyWarmArray("L1", dst.L1.array, src.L1.array); err != nil {
		return err
	}
	dst.L1.spill = cloneSpill(src.L1.spill)
	if src.L2 != nil {
		if err := copyWarmArray("L2", dst.L2.array, src.L2.array); err != nil {
			return err
		}
		dst.L2.dirtySpill = cloneLines(src.L2.dirtySpill)
	}
	if src.DRAM != nil {
		if err := copyWarmArray("DRAM", dst.DRAM.array, src.DRAM.array); err != nil {
			return err
		}
		dst.DRAM.dirtySpill = cloneLines(src.DRAM.dirtySpill)
	}
	return nil
}

// arrays returns every tag array in the hierarchy, for batch packing.
func (s *System) arrays() []*Array {
	out := []*Array{s.L1.array}
	if s.L1.victim != nil {
		out = append(out, s.L1.victim)
	}
	if s.L2 != nil {
		out = append(out, s.L2.array)
	}
	if s.DRAM != nil {
		out = append(out, s.DRAM.array)
	}
	return out
}

// rebind moves the array's storage into caller-provided backing slices,
// which must be exactly the current lengths. Contents carry over.
func (a *Array) rebind(tags []uint64, meta []uint64, dirty []bool, fill []int32) {
	copy(tags, a.tags)
	copy(meta, a.meta)
	copy(dirty, a.dirty)
	copy(fill, a.fill)
	a.tags, a.meta, a.dirty, a.fill = tags, meta, dirty, fill
}

// NewSystemBatch builds one System per config with the tag storage of
// the whole batch repacked into contiguous per-field backing arrays
// (structure of arrays): all tags back to back, then all metadata, and
// so on. Behavior is identical to per-call NewSystem — only the
// allocation layout changes, keeping a batch's hot arrays dense when
// one goroutine steps its lanes in lockstep. Construction failures are
// reported per index; the corresponding System is nil. A batch with
// fewer than two Systems keeps NewSystem's storage: there is nothing
// to pack it with.
func NewSystemBatch(cfgs []SystemConfig) ([]*System, []error) {
	systems := make([]*System, len(cfgs))
	errs := make([]error, len(cfgs))
	var nU64, nBool, nI32, built int
	for i, cfg := range cfgs {
		sys, err := NewSystem(cfg)
		if err != nil {
			errs[i] = err
			continue
		}
		systems[i] = sys
		built++
		for _, a := range sys.arrays() {
			nU64 += 2 * len(a.tags) // tags + meta
			nBool += len(a.dirty)
			nI32 += len(a.fill)
		}
	}
	if built < 2 {
		return systems, errs
	}
	var arrs []*Array
	for _, sys := range systems {
		if sys != nil {
			arrs = append(arrs, sys.arrays()...)
		}
	}
	u64 := make([]uint64, nU64)
	bools := make([]bool, nBool)
	i32 := make([]int32, nI32)
	takeU64 := func(n int) []uint64 { s := u64[:n:n]; u64 = u64[n:]; return s }
	takeBool := func(n int) []bool { s := bools[:n:n]; bools = bools[n:]; return s }
	takeI32 := func(n int) []int32 { s := i32[:n:n]; i32 = i32[n:]; return s }
	// Pack field-major: every lane's tags first, then every lane's
	// metadata, and so on, so same-field accesses across lanes stay in
	// one dense region.
	tags := make([][]uint64, len(arrs))
	for i, a := range arrs {
		tags[i] = takeU64(len(a.tags))
	}
	for i, a := range arrs {
		a.rebind(tags[i], takeU64(len(a.meta)), takeBool(len(a.dirty)), takeI32(len(a.fill)))
	}
	return systems, errs
}
