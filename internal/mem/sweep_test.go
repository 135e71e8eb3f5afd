package mem

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"hbcache/internal/workload"
)

func never() bool { return false }

// sweepSystems are the geometries the closed-form sweep is checked on:
// every SRAM L1 size the figures use, a 512-byte-line SRAM L1 (one L2
// touch per eight L2 lines), and the DRAM organization's row-buffer
// variants, 32-byte lines and sectored rows included.
func sweepSystems() map[string]SystemConfig {
	out := map[string]SystemConfig{}
	for kb := 4; kb <= 1024; kb *= 2 {
		out[fmt.Sprintf("sram-%dK", kb)] = DefaultSRAMSystem(kb<<10, 1, PortConfig{Kind: DuplicatePorts}, false)
	}
	long := DefaultSRAMSystem(16<<10, 1, PortConfig{Kind: DuplicatePorts}, false)
	long.L1.LineBytes = 512
	out["sram-512B-lines"] = long
	out["dram"] = DefaultDRAMSystem(6, false)
	out["dram-32B-lines"] = CustomDRAMSystemLines(16<<10, 32, 1, 6, false)
	out["dram-32K-rows"] = CustomDRAMSystem(32<<10, 1, 6, false)
	sect := CustomDRAMSystemLines(16<<10, 512, 1, 6, true)
	sect.L1.SectorBytes = 32
	out["dram-sectored"] = sect
	return out
}

func benchmarkRanges(t testing.TB, bench string) []Range {
	t.Helper()
	g, err := workload.New(bench, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rs []Range
	for _, r := range g.Regions() {
		rs = append(rs, Range{Base: r.Base, Bytes: r.Bytes})
	}
	return rs
}

// checkSweep sweeps a fresh cfg system both ways and compares the
// complete exported states.
func checkSweep(t *testing.T, cfg SystemConfig, ranges []Range) {
	t.Helper()
	closed, ref := newTestSystem(t, cfg), newTestSystem(t, cfg)
	if !closed.Sweep(ranges, never) || !ref.TouchSweep(ranges, never) {
		t.Fatal("sweep stopped without a stop request")
	}
	if got, want := closed.ExportState(), ref.ExportState(); !reflect.DeepEqual(got, want) {
		t.Errorf("ranges %v: Sweep state differs from TouchSweep's", ranges)
	}
}

// TestSweepMatchesTouches pins the closed-form sweep to the per-touch
// reference on every benchmark's region layout, and pins that those
// layouts take the closed form at all.
func TestSweepMatchesTouches(t *testing.T) {
	for name, cfg := range sweepSystems() {
		for _, bench := range workload.BenchmarkNames() {
			t.Run(name+"/"+bench, func(t *testing.T) {
				ranges := benchmarkRanges(t, bench)
				sys := newTestSystem(t, cfg)
				if !disjoint(ranges, max(sys.L1.array.lineBytes, sys.Lower.array.lineBytes)) {
					t.Fatal("generated layout refused by the closed form")
				}
				checkSweep(t, cfg, ranges)
			})
		}
	}
}

// TestSweepFallsBack pins the cases the closed form refuses: ranges
// sharing a line, and a hierarchy that is already warm. Both must still
// reach the per-touch state.
func TestSweepFallsBack(t *testing.T) {
	cfg := DefaultSRAMSystem(4<<10, 1, PortConfig{Kind: DuplicatePorts}, false)
	// The first and last ranges share a 64-byte L2 line but no 32-byte
	// L1 line, and the L2 sees that line again after another range.
	shared := []Range{{Base: 8<<10 + 32, Bytes: 200}, {Base: 0, Bytes: 4 << 10}, {Base: 8 << 10, Bytes: 32}}
	if !disjoint(shared, 32) || disjoint(shared, 64) {
		t.Fatal("ranges sharing only a 64-byte L2 line: want disjoint at 32 bytes, not at 64")
	}
	checkSweep(t, cfg, shared)

	warm, ref := newTestSystem(t, cfg), newTestSystem(t, cfg)
	for _, s := range []*System{warm, ref} {
		s.WarmTouch(1 << 20)
	}
	if warm.cold() {
		t.Fatal("touched system reads cold")
	}
	ranges := []Range{{Base: 0, Bytes: 64 << 10}}
	warm.Sweep(ranges, never)
	ref.TouchSweep(ranges, never)
	if !reflect.DeepEqual(warm.ExportState(), ref.ExportState()) {
		t.Error("warm system: Sweep state differs from TouchSweep's")
	}
}

// TestSweepStops pins that both sweeps poll stop: a stop already
// requested ends them before the first touch.
func TestSweepStops(t *testing.T) {
	cfg := DefaultSRAMSystem(4<<10, 1, PortConfig{Kind: DuplicatePorts}, false)
	ranges := []Range{{Base: 0, Bytes: 1 << 20}}
	for _, shared := range []bool{false, true} {
		rs := ranges
		if shared {
			rs = append(rs, ranges...)
		}
		sys := newTestSystem(t, cfg)
		if sys.Sweep(rs, func() bool { return true }) {
			t.Errorf("shared=%v: Sweep finished despite a stop request", shared)
		}
		if n := sys.L1.array.Occupancy(); n != 0 {
			t.Errorf("shared=%v: stopped sweep filled %d L1 lines", shared, n)
		}
	}
}

// TestSweepTouchCount pins that a range reaching the top of the address
// space neither wraps the touch count nor the addresses: its last touch
// is the last whole stride below 2^64.
func TestSweepTouchCount(t *testing.T) {
	for _, tc := range []struct {
		r    Range
		want uint64
	}{
		{Range{0, 0}, 0},
		{Range{0, 1}, 1},
		{Range{0, 32}, 1},
		{Range{5, 33}, 2},
		{Range{0, 1<<64 - 1}, 1 << 59},
	} {
		if got := tc.r.touches(); got != tc.want {
			t.Errorf("%+v: %d touches, want %d", tc.r, got, tc.want)
		}
	}
	top := []Range{{Base: 1<<64 - 4096, Bytes: 4096}}
	checkSweep(t, DefaultDRAMSystem(6, false), top)
	if disjoint([]Range{{Base: 1<<64 - 64, Bytes: 65}}, 64) {
		t.Error("a range wrapping the address space taken as disjoint")
	}
}

// FuzzSweep checks the closed form (and, for the lists it refuses, the
// fallback) against the per-touch reference over random range lists:
// unaligned, empty, adjacent and overlapping ones alike. Each 8 bytes
// of data make one range, its base within 256 KB and its size under
// 8 KB. geom picks the line sizes, 8 B to 1 KB at each level, over a
// 4 KB two-way L1 and a 32 KB four-way L2 that evict within that
// space; sectored splits each L1 line into eight sectors.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 16, 0, 0}, uint8(2|3<<3), false)
	f.Add([]byte{0, 0, 0, 0, 0, 16, 0, 0, 0, 16, 0, 0, 0, 16, 0, 0}, uint8(6|6<<3), true)
	f.Add([]byte{7, 1, 0, 0, 33, 0, 0, 0, 40, 1, 0, 0, 0, 2, 0, 0}, uint8(0|7<<3), false)
	f.Add([]byte{32, 32, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 32, 0, 0, 32, 0, 0, 0}, uint8(2|3<<3), false)
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 128, 0, 0, 255, 31, 0, 0}, uint8(6|3<<3), true)
	f.Fuzz(func(t *testing.T, data []byte, geom uint8, sectored bool) {
		cfg := DefaultSRAMSystem(4<<10, 1, PortConfig{Kind: DuplicatePorts}, false)
		cfg.L1.LineBytes = 8 << (geom & 7)
		cfg.L2 = &L2Config{Bytes: 32 << 10, LineBytes: 8 << (geom >> 3 & 7), Assoc: 4, HitCycles: DefaultL2HitCycles}
		if sectored {
			cfg.L1.SectorBytes = cfg.L1.LineBytes / 8
		}
		var ranges []Range
		for ; len(data) >= 8 && len(ranges) < 16; data = data[8:] {
			ranges = append(ranges, Range{
				Base:  uint64(binary.LittleEndian.Uint32(data)) % (256 << 10),
				Bytes: uint64(binary.LittleEndian.Uint32(data[4:])) % (8 << 10),
			})
		}
		checkSweep(t, cfg, ranges)
	})
}
