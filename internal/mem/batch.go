package mem

import "fmt"

// This file supports the batch simulation kernel (internal/sim's
// RunBatch): sharing the functional prewarm between hierarchies whose
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
