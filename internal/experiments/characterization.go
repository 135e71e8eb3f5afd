package experiments

import (
	"fmt"

	"hbcache/internal/fo4"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
	"hbcache/internal/stats"
	"hbcache/internal/workload"
)

// Figure1 tabulates the access-time model: FO4 delay versus capacity for
// single-ported and eight-way banked caches, plus the hit time in
// processor cycles at the baseline 25 FO4 clock.
func Figure1() *stats.Table {
	t := stats.NewTable("size", "single-ported FO4", "8-way banked FO4", "cycles @25 FO4 (single)", "cycles @25 FO4 (banked)")
	for _, b := range fo4.PowerOfTwoSizes() {
		sp := fo4.MustAccessTime(fo4.SinglePorted, b)
		bk := fo4.MustAccessTime(fo4.EightWayBanked, b)
		spc, _ := fo4.HitCycles(fo4.SinglePorted, b, fo4.BaselineCycleFO4)
		bkc, _ := fo4.HitCycles(fo4.EightWayBanked, b, fo4.BaselineCycleFO4)
		t.AddRow(
			fo4.SizeLabel(b),
			fmt.Sprintf("%.2f", sp),
			fmt.Sprintf("%.2f", bk),
			fmt.Sprintf("%d", spc),
			fmt.Sprintf("%d", bkc),
		)
	}
	return t
}

// Table2 compares the paper's execution-time and instruction-mix
// percentages with what the synthetic generators actually emit.
func Table2(o Options) (*stats.Table, error) {
	t := stats.NewTable("benchmark", "group",
		"kernel% (paper)", "user% (paper)", "idle% (paper)",
		"load% (paper)", "load% (model)",
		"store% (paper)", "store% (model)",
		"kernel% of busy (model)")
	insts := o.MeasureInsts
	if insts == 0 {
		insts = 200_000
	}
	for _, name := range o.benchmarks(workload.BenchmarkNames()) {
		g, err := workload.New(name, o.seed())
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < insts; i++ {
			g.Next()
		}
		m := g.Model()
		t.AddRow(
			name, m.Group.String(),
			fmt.Sprintf("%.1f", m.Paper.KernelPct),
			fmt.Sprintf("%.1f", m.Paper.UserPct),
			fmt.Sprintf("%.1f", m.Paper.IdlePct),
			fmt.Sprintf("%.1f", m.Paper.LoadPct),
			fmt.Sprintf("%.1f", g.MeasuredLoadPct()),
			fmt.Sprintf("%.1f", m.Paper.StorePct),
			fmt.Sprintf("%.1f", g.MeasuredStorePct()),
			fmt.Sprintf("%.1f", g.MeasuredKernelPct()),
		)
	}
	return t, nil
}

// Figure3 measures misses per instruction for single-ported two-way
// 32-byte-line caches from 4 KB to 1 MB, per benchmark.
//
// Miss-rate points bypass the processor model (and therefore the
// runner's config-keyed cache), so they fan out across the runner's
// worker pool directly.
func Figure3(o Options) (*stats.Table, error) {
	benches := o.benchmarks(workload.BenchmarkNames())
	rates, err := missRateGrid(o, benches, fo4.PowerOfTwoSizes())
	if err != nil {
		return nil, err
	}
	sizes := fo4.PowerOfTwoSizes()
	header := []string{"benchmark"}
	for _, s := range sizes {
		header = append(header, fo4.SizeLabel(s))
	}
	t := stats.NewTable(header...)
	for bi, name := range benches {
		row := []string{name}
		for si := range sizes {
			row = append(row, fmt.Sprintf("%.2f%%", 100*rates[bi][si]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// missRateGrid computes the miss-rate curve of every benchmark in
// parallel, one sim.MissRates pass per benchmark, returning rates
// indexed [benchmark][size].
func missRateGrid(o Options, benches []string, sizes []int) ([][]float64, error) {
	rates := make([][]float64, len(benches))
	err := runner.Parallel(o.ctx(), o.runner().Workers(), len(benches), func(bi int) error {
		r, err := sim.MissRates(benches[bi], o.seed(), sizes, o.MeasureInsts)
		rates[bi] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return rates, nil
}
