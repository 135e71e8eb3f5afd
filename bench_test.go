package hbcache_test

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation. Each benchmark regenerates its figure at
// medium fidelity and prints the same rows/series the paper reports
// (once per `go test -bench` invocation), so
//
//	go test -bench=. -benchmem
//
// doubles as the full reproduction run. Component microbenchmarks at the
// bottom track simulator throughput.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/experiments"
	"hbcache/internal/fo4"
	"hbcache/internal/isa"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
	"hbcache/internal/stats"
	"hbcache/internal/workload"
)

// benchOpts is the fidelity used by the figure benchmarks: large enough
// for stable series, small enough that the whole harness runs in a few
// minutes.
func benchOpts() experiments.Options {
	return experiments.Options{
		Seed:         1,
		PrewarmInsts: 600_000,
		WarmupInsts:  20_000,
		MeasureInsts: 120_000,
	}
}

var printOnce sync.Map

// runFigure executes an experiment b.N times and prints its table once.
func runFigure(b *testing.B, name string, run func(experiments.Options) (*stats.Table, error)) {
	b.Helper()
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n== %s ==\n%s\n", name, tbl.String())
	}
}

func BenchmarkFigure1(b *testing.B) {
	runFigure(b, "Figure 1: access times (FO4)", func(o experiments.Options) (*stats.Table, error) {
		return experiments.Figure1(), nil
	})
}

func BenchmarkTable2(b *testing.B) {
	runFigure(b, "Table 2: benchmark characterization", experiments.Table2)
}

func BenchmarkFigure3(b *testing.B) {
	runFigure(b, "Figure 3: misses/instruction vs cache size", experiments.Figure3)
}

func BenchmarkFigure4(b *testing.B) {
	runFigure(b, "Figure 4: ideal multi-ported multi-cycle 32K caches (IPC)", experiments.Figure4)
}

func BenchmarkFigure5(b *testing.B) {
	runFigure(b, "Figure 5: banked multi-cycle 32K caches (IPC)", experiments.Figure5)
}

func BenchmarkFigure6(b *testing.B) {
	runFigure(b, "Figure 6: line buffer with banked and duplicate caches (IPC)", experiments.Figure6)
}

func BenchmarkFigure7(b *testing.B) {
	runFigure(b, "Figure 7: 4MB DRAM cache with 16K row-buffer cache (IPC)", experiments.Figure7)
}

func BenchmarkFigure8(b *testing.B) {
	runFigure(b, "Figure 8: IPC vs cache size, duplicate & banked + LB", experiments.Figure8)
}

func BenchmarkFigure9(b *testing.B) {
	runFigure(b, "Figure 9: normalized execution time vs cycle time", experiments.Figure9)
}

func BenchmarkPortScaling(b *testing.B) {
	runFigure(b, "Section 2.1: IPC vs ideal port count", experiments.PortScaling)
}

func BenchmarkBestConfiguration(b *testing.B) {
	runFigure(b, "Section 5: best configuration per cycle time", experiments.BestConfiguration)
}

// --- component microbenchmarks ---

func BenchmarkWorkloadGenerator(b *testing.B) {
	g := workload.MustNew("gcc", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkStreamSource times the stream-generation layer per
// instruction over one quick timed window of gcc, in ns/inst, for each
// way a core can be fed: the live generator (Generator.Next), a
// recorded trace's replay (TraceReader.Next), and a stream tape's
// replay, the path PrewarmCache feeds lone runs of a stream after its
// first hit. The tape also reports its size in B/inst.
func BenchmarkStreamSource(b *testing.B) {
	const n = 70_000
	read := func(b *testing.B, rd isa.Reader) {
		for k := 0; k < n; k++ {
			if _, ok := rd.Next(); !ok {
				b.Fatalf("stream ended after %d instructions", k)
			}
		}
	}
	perInst := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/inst")
	}
	b.Run("generator", func(b *testing.B) {
		g := workload.MustNew("gcc", 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, g)
		}
		perInst(b)
	})
	b.Run("trace", func(b *testing.B) {
		data, err := workload.RecordTrace("gcc", 1, n)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := workload.OpenTrace(data)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, tr.NewReader())
		}
		perInst(b)
	})
	b.Run("tape", func(b *testing.B) {
		g := workload.MustNew("gcc", 1)
		var size int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Recording is the first hit's cost, not the read's.
			b.StopTimer()
			rd, bytes, err := sim.NewTapeReader(g, n)
			if err != nil {
				b.Fatal(err)
			}
			size = bytes
			b.StartTimer()
			read(b, rd)
		}
		perInst(b)
		b.ReportMetric(float64(size)/n, "B/inst")
	})
}

func BenchmarkCacheArrayLookup(b *testing.B) {
	// The working set exactly fills the array (1024 lines into a
	// 32K/32B/2-way = 1024-line cache, two lines per set), and a
	// verification pass pins that every probe hits before timing starts,
	// so the measured mix is pure steady-state hits at any b.N.
	a := mem.MustNewArray(32<<10, 32, 2)
	for i := 0; i < 1024; i++ {
		a.Fill(uint64(i) * 32)
	}
	for i := 0; i < 1024; i++ {
		if !a.Lookup(uint64(i) * 32) {
			b.Fatalf("line %d not resident after fill; benchmark would time a hit/miss mix", i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Lookup(uint64(i%1024) * 32)
	}
}

func BenchmarkL1Load(b *testing.B) {
	sys, err := mem.NewSystem(mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.IdealPorts, Count: 4}, true))
	if err != nil {
		b.Fatal(err)
	}
	// Warm the full working set first. The cache starts cold, so without
	// this the hit/miss mix — and the ns/op — depends on b.N: short
	// calibration runs would time mostly misses, long runs mostly hits.
	for addr := uint64(0); addr < 4096*8; addr += 32 {
		sys.WarmTouch(addr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.L1.TryLoad(mem.Cycle(i), uint64(i%4096)*8)
	}
}

func BenchmarkCPUCycle(b *testing.B) {
	gen := workload.MustNew("gcc", 1)
	sys, err := mem.NewSystem(mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true))
	if err != nil {
		b.Fatal(err)
	}
	core, err := cpu.New(cpu.DefaultConfig(), gen, sys.L1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Step()
	}
	b.ReportMetric(float64(core.Stats().Retired)/float64(b.N), "insts/cycle")
}

func BenchmarkFullSimulation(b *testing.B) {
	// Instructions processed per op: the prewarm window is drained
	// functionally and warmup+measure retire on the timing model.
	const instsPerOp = 200_000 + 10_000 + 50_000
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Benchmark:    "gcc",
			Seed:         1,
			CPU:          cpu.DefaultConfig(),
			Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
			PrewarmInsts: 200_000,
			WarmupInsts:  10_000,
			MeasureInsts: 50_000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(instsPerOp)*float64(b.N)/s, "insts/sec")
	}
}

// BenchmarkRegionSweep times the pre-run region sweep every fresh
// simulation starts with: database's regions (about 150k 32-byte
// touches) through the default SRAM hierarchy, computed in closed form
// and, for reference, touch by touch. Building the fresh hierarchy each
// op needs is left out of the timing.
func BenchmarkRegionSweep(b *testing.B) {
	cfg := mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true)
	var ranges []mem.Range
	for _, r := range workload.MustNew("database", 1).Regions() {
		ranges = append(ranges, mem.Range{Base: r.Base, Bytes: r.Bytes})
	}
	never := func() bool { return false }
	for _, bc := range []struct {
		name  string
		sweep func(*mem.System, []mem.Range, func() bool) bool
	}{
		{"closed-form", (*mem.System).Sweep},
		{"touches", (*mem.System).TouchSweep},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := mem.NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				bc.sweep(sys, ranges, never)
			}
		})
	}
}

// batchSweepConfigs is the BenchmarkBatchSweep design space: four L1
// sizes crossed with four of the paper's headline organizations (ideal
// dual-ported, eight-way banked, duplicate arrays + line buffer, and
// banked + line buffer), all on gcc at the figure windows. Sixteen
// points — a figure-sized sweep slice — so the measured throughput is
// what the real harness sees, stream sharing and warm-state grouping
// included.
func batchSweepConfigs() []sim.Config {
	o := benchOpts()
	type org struct {
		ports mem.PortConfig
		lb    bool
	}
	orgs := []org{
		{mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false},
		{mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false},
		{mem.PortConfig{Kind: mem.DuplicatePorts}, true},
		{mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, true},
	}
	var cfgs []sim.Config
	for _, size := range []int{16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		for _, g := range orgs {
			cfgs = append(cfgs, sim.Config{
				Benchmark:    "gcc",
				Seed:         o.Seed,
				CPU:          cpu.DefaultConfig(),
				Memory:       mem.DefaultSRAMSystem(size, 1, g.ports, g.lb),
				PrewarmInsts: o.PrewarmInsts,
				WarmupInsts:  o.WarmupInsts,
				MeasureInsts: o.MeasureInsts,
			})
		}
	}
	return cfgs
}

// BenchmarkBatchSweep measures sweep throughput per core at batch
// sizes 1/4/8/16: the same sixteen-point sweep through a single-worker
// runner, with b=1 the classic one-config-at-a-time path and b>1 the
// lockstep batch kernel. The custom metric is configs/s/core; the b=N
// over b=1 ratio is the batch kernel's headline speedup (benchjson
// surfaces it as batch_speedup).
func BenchmarkBatchSweep(b *testing.B) {
	cfgs := batchSweepConfigs()
	for _, bs := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("b=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh runner every iteration: the memo would otherwise
				// serve iterations 2..N from cache and time nothing.
				r, err := runner.New(runner.Options{Workers: 1, BatchSize: bs})
				if err != nil {
					b.Fatal(err)
				}
				jrs, err := r.Run(context.Background(), cfgs)
				if err != nil {
					b.Fatal(err)
				}
				for _, jr := range jrs {
					if jr.Err != nil {
						b.Fatal(jr.Err)
					}
				}
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(len(cfgs)*b.N)/s, "configs/s/core")
			}
		})
	}
}

// BenchmarkMissRates times one Figure 3 curve: the nine power-of-two
// sizes from 4 KB to 1 MB measured in a single generator pass.
func BenchmarkMissRates(b *testing.B) {
	sizes := fo4.PowerOfTwoSizes()
	for i := 0; i < b.N; i++ {
		if _, err := sim.MissRates("tomcatv", 1, sizes, 50_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFO4Model(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Figure1()
	}
}

func BenchmarkSliceReaderCPU(b *testing.B) {
	// A pure-ALU trace isolates core pipeline overhead from the memory
	// system.
	insts := make([]isa.Inst, 4096)
	for i := range insts {
		insts[i] = isa.Inst{Op: isa.IntALU, Dst: int16(2 + i%60), PC: uint64(i * 4)}
	}
	sys, err := mem.NewSystem(mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, err := cpu.New(cpu.DefaultConfig(), isa.NewSliceReader(insts), sys.L1)
		if err != nil {
			b.Fatal(err)
		}
		core.Run(0)
	}
}
