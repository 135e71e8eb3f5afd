package mem

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

// TestArrayMetaOnlyWhereUsed pins which tag arrays carry per-line
// metadata words: only a sectored L1's, whose sector bitmaps they
// hold. An unsectored L1, its victim buffer and the L2 allocate none.
func TestArrayMetaOnlyWhereUsed(t *testing.T) {
	cfg := DefaultSRAMSystem(32<<10, 1, PortConfig{Kind: DuplicatePorts}, false)
	cfg.L1.VictimCache = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Array{"L1": sys.L1.array, "victim": sys.L1.victim, "L2": sys.Lower.array} {
		if a.meta != nil {
			t.Errorf("unsectored %s array allocated %d meta words", name, len(a.meta))
		}
	}
	if a := sectoredL1(t, &FixedLatency{Cycles: 6}).array; len(a.meta) != len(a.tags) {
		t.Errorf("sectored L1 has %d meta words for %d slots", len(a.meta), len(a.tags))
	}
}

// driveSystem runs a fixed mix of warm touches, loads and stores
// through sys, so dirty lines, spills and the victim buffer all hold
// state.
func driveSystem(sys *System) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 60_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 20) % (6 << 20) &^ 7
		now := Cycle(i * 4)
		switch i % 4 {
		case 0:
			sys.WarmTouch(addr)
		case 1:
			sys.L1.EnqueueStore(addr)
		default:
			sys.L1.TryLoad(now, addr)
		}
		sys.L1.DrainStores(now)
	}
}

// TestExportStateShapeStable pins the snapshot wire format of an
// unsectored hierarchy, victim buffer included: every array exports a
// full-length, all-zero meta list even though it keeps no metadata, so
// the JSON is byte-identical to the format's from before arrays
// allocated metadata lazily (the digest below was recorded then).
// Importing it back is a fixed point, and a meta list with a set bit is
// refused by an array without metadata.
func TestExportStateShapeStable(t *testing.T) {
	cfg := DefaultSRAMSystem(16<<10, 1, PortConfig{Kind: BankedPorts, Count: 8}, true)
	cfg.L1.VictimCache = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveSystem(sys)
	if sys.L1.DirtyLines() == 0 || sys.L1.victim.Occupancy() == 0 || sys.Lower.array.CountDirty() == 0 {
		t.Fatal("the drive left no dirty lines or victim traffic to export")
	}
	st := sys.ExportState()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "5ed5d1898ae05c7787d2c1c3ea8526c95669be806573652486365302e0acde6b"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("exported state digest %s, want %s", got, want)
	}
	if n := len(st.L2.Array.Meta); n != len(sys.Lower.array.tags) {
		t.Errorf("L2 exported %d meta words for %d slots", n, len(sys.Lower.array.tags))
	}

	back, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.ImportState(st); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("import/export is not a fixed point")
	}

	st.L2.Array.Meta[3] = 1
	if err := back.ImportState(st); err == nil || !strings.Contains(err.Error(), "keeps none") {
		t.Errorf("non-zero meta into a meta-less array: err = %v", err)
	}
}
