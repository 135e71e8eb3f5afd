package experiments

import (
	"strconv"
	"strings"
	"testing"

	"hbcache/internal/mem"
	"hbcache/internal/sim"
)

// quick returns low-fidelity options that keep test runtime sane while
// preserving the qualitative relationships the tests assert.
func quick(benches ...string) Options {
	return Options{
		Seed:         1,
		Benchmarks:   benches,
		PrewarmInsts: 300_000,
		WarmupInsts:  10_000,
		MeasureInsts: 60_000,
	}
}

// cellFloat parses a numeric table cell (possibly "1.23 (64K)").
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	f := strings.Fields(strings.TrimSuffix(cell, "%"))
	if len(f) == 0 {
		t.Fatalf("empty cell")
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// tableCells renders a table into rows of cells for assertions.
func tableCells(tbl interface{ String() string }) [][]string {
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	var rows [][]string
	for i, ln := range lines {
		if i < 2 { // header + separator
			continue
		}
		rows = append(rows, strings.Fields(ln))
	}
	return rows
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("registry has %d experiments, want 10", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if _, err := ByName(e.Name); err != nil {
			t.Errorf("ByName(%q): %v", e.Name, err)
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestFigure1Anchors(t *testing.T) {
	tbl := Figure1()
	if tbl.NumRows() != 9 {
		t.Fatalf("Figure 1 has %d rows, want 9 (4K..1M)", tbl.NumRows())
	}
	out := tbl.String()
	for _, want := range []string{"25.00", "41.75", "55.00", "4K", "1M"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Runs(t *testing.T) {
	tbl, err := Table2(quick("gcc", "tomcatv"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tbl.NumRows())
	}
	if !strings.Contains(tbl.String(), "SPECfp") {
		t.Error("Table 2 must carry group labels")
	}
}

func TestFigure3Shape(t *testing.T) {
	tbl, err := Figure3(quick("gcc", "database"))
	if err != nil {
		t.Fatal(err)
	}
	rows := tableCells(tbl)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// Miss rate at 4K (col 1) must exceed miss rate at 1M (last col).
	for _, row := range rows {
		small := cellFloat(t, row[1])
		big := cellFloat(t, row[len(row)-1])
		if small <= big {
			t.Errorf("%s: 4K miss %.2f must exceed 1M miss %.2f", row[0], small, big)
		}
	}
}

func TestFigure4PortsAndHitTime(t *testing.T) {
	tbl, err := Figure4(quick("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	rows := tableCells(tbl)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (1..4 ports)", len(rows))
	}
	// Columns: bench, "N ideal port(s)" (3 fields), IPC 1~, 2~, 3~.
	ipc := func(row []string, hit int) float64 { return cellFloat(t, row[len(row)-4+hit]) }
	// Two ports beat one at every hit time.
	for h := 1; h <= 3; h++ {
		if ipc(rows[1], h) <= ipc(rows[0], h) {
			t.Errorf("hit %d~: 2 ports (%.3f) must beat 1 port (%.3f)", h, ipc(rows[1], h), ipc(rows[0], h))
		}
	}
	// IPC decreases as hit time grows (gcc is an integer code and must
	// lose noticeably).
	for _, row := range rows {
		if ipc(row, 1) <= ipc(row, 3) {
			t.Errorf("%v: IPC must fall from 1~ (%.3f) to 3~ (%.3f)", row[1], ipc(row, 1), ipc(row, 3))
		}
	}
}

func TestFigure5BanksHelp(t *testing.T) {
	tbl, err := Figure5(quick("tomcatv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := tableCells(tbl)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (1/2/4/8/128 banks)", len(rows))
	}
	ipc := func(row []string) float64 { return cellFloat(t, row[len(row)-3]) } // 1~ column
	oneBank, eightBanks, manyBanks := ipc(rows[0]), ipc(rows[3]), ipc(rows[4])
	if eightBanks <= oneBank {
		t.Errorf("8 banks (%.3f) must beat 1 bank (%.3f)", eightBanks, oneBank)
	}
	// 128 banks gives little over 8 (the paper: the difference is small).
	if manyBanks < eightBanks*0.97 {
		t.Errorf("128 banks (%.3f) must not fall below 8 banks (%.3f)", manyBanks, eightBanks)
	}
}

func TestFigure6LineBufferHelpsPipelinedCaches(t *testing.T) {
	tbl, err := Figure6(quick("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	rows := tableCells(tbl)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// Row order: banked, banked+LB, duplicate, duplicate+LB.
	ipc3 := func(row []string) float64 { return cellFloat(t, row[len(row)-1]) } // 3~ column
	if ipc3(rows[1]) <= ipc3(rows[0]) {
		t.Errorf("banked+LB 3~ (%.3f) must beat banked (%.3f)", ipc3(rows[1]), ipc3(rows[0]))
	}
	if ipc3(rows[3]) <= ipc3(rows[2]) {
		t.Errorf("duplicate+LB 3~ (%.3f) must beat duplicate (%.3f)", ipc3(rows[3]), ipc3(rows[2]))
	}
}

func TestFigure7DRAMHitTimeHurts(t *testing.T) {
	tbl, err := Figure7(quick("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	rows := tableCells(tbl)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// IPC at DRAM 6~ must be >= IPC at 8~ for each organization.
	for _, row := range rows {
		six := cellFloat(t, row[len(row)-3])
		eight := cellFloat(t, row[len(row)-1])
		if six < eight {
			t.Errorf("DRAM 6~ (%.3f) must not lose to 8~ (%.3f)", six, eight)
		}
	}
}

func TestFigure8SizesGrowIPC(t *testing.T) {
	tbl, err := Figure8(quick("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	rows := tableCells(tbl)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 organizations", len(rows))
	}
	// For gcc with a 1-cycle duplicate cache, IPC at 64K..1M must beat
	// IPC at 4K. Index from the end: the last 10 cells are the nine
	// size columns plus the DRAM point.
	row := rows[0] // duplicate 1~
	first := cellFloat(t, row[len(row)-10])
	later := cellFloat(t, row[len(row)-5])
	if later <= first {
		t.Errorf("gcc duplicate 1~: IPC at 128K (%.3f) must beat 4K (%.3f)", later, first)
	}
	// The DRAM point column must be present on the duplicate 1~ row and
	// absent elsewhere.
	if row[len(row)-1] == "-" {
		t.Error("duplicate 1~ row must carry the DRAM point")
	}
	if rows[1][len(rows[1])-1] != "-" {
		t.Error("non-anchor rows must not carry the DRAM point")
	}
}

func TestFigure9ShapeForGcc(t *testing.T) {
	o := quick("gcc")
	tbl, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableCells(tbl)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 depths", len(rows))
	}
	// Depth 1 at 10 FO4 must be infeasible (no single-cycle cache fits
	// below 24 FO4).
	d1 := rows[0]
	if d1[2] != "-" {
		t.Errorf("single-cycle cache at 10 FO4 must be infeasible, got %q", d1[2])
	}
	// Depth 3 must be feasible everywhere.
	d3 := rows[2]
	for i := 2; i < len(d3); i++ {
		if d3[i] == "-" {
			t.Errorf("three-cycle cache infeasible at column %d", i)
		}
	}
	// Normalized execution time at the reference point (10 FO4, depth 3)
	// must be ~1.
	refCell := cellFloat(t, strings.Join(d3[2:4], " "))
	if refCell < 0.9 || refCell > 1.1 {
		t.Errorf("reference cell = %.2f, want ~1.0", refCell)
	}
}

func TestBestConfigurationEndpoints(t *testing.T) {
	tbl, err := BestConfiguration(quick("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	rows := tableCells(tbl)
	if len(rows) != len(Figure9CycleTimes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Figure9CycleTimes))
	}
	// At 10 FO4 the best depth must be 3~ (nothing shallower fits the
	// paper's conclusion: at 10 FO4 at least three cycles of pipelining
	// are required... depth 2 fits only 4K there).
	if rows[0][1] == "1~" {
		t.Errorf("10 FO4 best depth = %s; single-cycle caches do not exist there", rows[0][1])
	}
	// At 30 FO4 some configuration must be feasible.
	last := rows[len(rows)-1]
	if last[1] == "-" {
		t.Error("30 FO4 must have a feasible configuration")
	}
}

func TestPortScalingDiminishingReturns(t *testing.T) {
	tbl, err := PortScaling(quick("gcc", "tomcatv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := tableCells(tbl)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	ipc := func(i int) float64 { return cellFloat(t, rows[i][1]) }
	gain12 := ipc(1)/ipc(0) - 1
	gain34 := ipc(3)/ipc(2) - 1
	if gain12 <= 0 {
		t.Errorf("second port must help: gain %.1f%%", 100*gain12)
	}
	if gain34 >= gain12 {
		t.Errorf("diminishing returns violated: 3->4 gain %.1f%% >= 1->2 gain %.1f%%", 100*gain34, 100*gain12)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Error("default seed must be 1")
	}
	def := []string{"a", "b"}
	got := o.benchmarks(def)
	if len(got) != 2 {
		t.Error("empty Benchmarks must fall back to default")
	}
	o.Benchmarks = []string{"x"}
	if got := o.benchmarks(def); len(got) != 1 || got[0] != "x" {
		t.Error("explicit Benchmarks must win")
	}
}

// TestRunHelperRejectsBadConfig: the batch helper every experiment runs
// through surfaces an invalid memory config as an error before any
// result is applied.
func TestRunHelperRejectsBadConfig(t *testing.T) {
	b := quick("gcc").batch()
	applied := false
	b.add("gcc", mem.SystemConfig{}, func(sim.Result) { applied = true })
	if err := b.run(); err == nil {
		t.Error("invalid memory config must fail")
	}
	if applied {
		t.Error("a failed point's result was applied")
	}
}
