// Package experiments regenerates every table and figure of the paper's
// evaluation: the access-time curves (Figure 1), the benchmark
// characterization (Table 2, Figure 3), the fixed-cycle-time IPC studies
// of multi-ported, banked, line-buffered and DRAM caches (Figures 4-8
// and the port-scaling claim of section 2.1), and the execution-time
// study across processor cycle times (Figure 9).
//
// Each experiment returns a stats.Table whose rows mirror the series the
// paper plots. Absolute values differ from the original (the substrate
// is a synthetic-workload simulator, not MXS/SimOS on a 1997 SGI), but
// the comparisons the paper draws — who wins, by roughly what factor,
// where the crossovers fall — are the reproduction target.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
	"hbcache/internal/stats"
	"hbcache/internal/workload"
)

// Options tune experiment fidelity and scope.
type Options struct {
	// Seed feeds the workload generators (default 1).
	Seed uint64
	// Benchmarks restricts which benchmarks run. Empty means each
	// experiment's paper default (the three representatives, or all
	// nine where the paper reports a nine-benchmark average).
	Benchmarks []string
	// PrewarmInsts, WarmupInsts, MeasureInsts override the simulation
	// windows (0 = sim defaults). Tests use small values; the benchmark
	// harness uses the defaults.
	PrewarmInsts uint64
	WarmupInsts  uint64
	MeasureInsts uint64
	// PrewarmMode overrides how the prewarm window is fast-forwarded
	// (empty = sim default, fast-forward).
	PrewarmMode sim.PrewarmMode

	// Runner executes the experiment's simulation points. Sharing one
	// Runner across experiments deduplicates the many design-space
	// points the figures have in common and adds disk caching and
	// progress reporting. Nil falls back to a process-wide default
	// with NumCPU workers and no disk cache.
	Runner *runner.Runner
	// Context cancels in-flight experiment work (nil = background).
	Context context.Context
}

// defaultRunner backs Options with a nil Runner. CacheDir is off, so
// New cannot fail here.
var defaultRunner = func() *runner.Runner {
	r, err := runner.New(runner.Options{})
	if err != nil {
		panic(err)
	}
	return r
}()

func (o Options) runner() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return defaultRunner
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) benchmarks(def []string) []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return def
}

// config assembles the sim.Config for one design point under the
// options' windows and the paper's default processor.
func (o Options) config(bench string, memory mem.SystemConfig) sim.Config {
	return sim.Config{
		Benchmark:    bench,
		Seed:         o.seed(),
		CPU:          cpu.DefaultConfig(),
		Memory:       memory,
		PrewarmInsts: o.PrewarmInsts,
		WarmupInsts:  o.WarmupInsts,
		MeasureInsts: o.MeasureInsts,
		PrewarmMode:  o.PrewarmMode,
	}
}

// batch accumulates an experiment's simulation points together with the
// table cells they feed, then executes them through the runner as one
// parallel wave. Apply callbacks fire in submission order, so table
// assembly stays deterministic at any worker count.
type batch struct {
	o     Options
	cfgs  []sim.Config
	apply []func(sim.Result)
}

func (o Options) batch() *batch { return &batch{o: o} }

// add schedules a default-processor run of bench on memory; f receives
// the result once the batch runs.
func (b *batch) add(bench string, memory mem.SystemConfig, f func(sim.Result)) {
	b.addConfig(b.o.config(bench, memory), f)
}

// addConfig schedules an arbitrary config (for ablations that vary the
// processor rather than the memory system).
func (b *batch) addConfig(cfg sim.Config, f func(sim.Result)) {
	b.cfgs = append(b.cfgs, cfg)
	b.apply = append(b.apply, f)
}

// run executes every scheduled point and applies the callbacks,
// stopping at the first job error.
func (b *batch) run() error {
	jrs, err := b.o.runner().Run(b.o.ctx(), b.cfgs)
	if err != nil {
		return err
	}
	for i, jr := range jrs {
		if jr.Err != nil {
			return jr.Err
		}
		b.apply[i](jr.Result)
	}
	return nil
}

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	Name        string // registry key, e.g. "fig4"
	Title       string // the paper's caption, abbreviated
	Description string
	Run         func(Options) (*stats.Table, error)
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{
			Name:        "fig1",
			Title:       "Figure 1: cache access times (FO4) for single-ported and eight-way banked caches",
			Description: "Access-time model, 4 KB to 1 MB; anchored to every value the paper states.",
			Run:         func(o Options) (*stats.Table, error) { return Figure1(), nil },
		},
		{
			Name:        "table2",
			Title:       "Table 2: execution-time and instruction-mix percentages per benchmark",
			Description: "Paper values versus the synthetic generators' measured stream composition.",
			Run:         Table2,
		},
		{
			Name:        "fig3",
			Title:       "Figure 3: misses per instruction versus cache size, single-ported caches",
			Description: "All nine benchmarks, 4 KB to 1 MB, two-way associative 32-byte lines.",
			Run:         Figure3,
		},
		{
			Name:        "fig4",
			Title:       "Figure 4: IPC of ideal multi-cycle multi-ported 32 KB caches",
			Description: "One to four ideal ports, one to three cycle hit times, fixed cycle time.",
			Run:         Figure4,
		},
		{
			Name:        "fig5",
			Title:       "Figure 5: IPC of 32 KB multi-cycle banked caches",
			Description: "1/2/4/8/128 banks, one to three cycle hit times, fixed cycle time.",
			Run:         Figure5,
		},
		{
			Name:        "fig6",
			Title:       "Figure 6: 32 KB banked and duplicate caches with and without a line buffer",
			Description: "Eight-way banked and duplicate organizations, one to three cycle hits.",
			Run:         Figure6,
		},
		{
			Name:        "fig7",
			Title:       "Figure 7: 4 MB DRAM cache with a 16 KB row-buffer cache",
			Description: "DRAM hit time swept six to eight cycles, with and without a line buffer.",
			Run:         Figure7,
		},
		{
			Name:        "fig8",
			Title:       "Figure 8: IPC versus cache size for duplicate and banked caches with a line buffer",
			Description: "4 KB to 1 MB, one to three cycle hits, plus the 6-cycle DRAM cache point.",
			Run:         Figure8,
		},
		{
			Name:        "fig9",
			Title:       "Figure 9: normalized execution time versus processor cycle time",
			Description: "Duplicate caches with a line buffer; largest cache per pipeline depth at each cycle time; L2/memory latencies scaled.",
			Run:         Figure9,
		},
		{
			Name:        "ports",
			Title:       "Section 2.1: processor performance versus ideal cache port count",
			Description: "The +25%/+4%/+1% scaling claim for two, three and four ports at 32 KB.",
			Run:         PortScaling,
		},
	}
}

// ByName returns the named experiment, searching the paper's figures
// and the extension/ablation set.
func ByName(name string) (Experiment, error) {
	for _, e := range AllWithExtensions() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range AllWithExtensions() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
}

// duplicatePorts is the duplicate-cache port configuration.
var duplicatePorts = mem.PortConfig{Kind: mem.DuplicatePorts}

// banked8 is the externally eight-way banked configuration.
var banked8 = mem.PortConfig{Kind: mem.BankedPorts, Count: 8}

// representatives are the paper's per-group representative benchmarks.
var representatives = workload.RepresentativeNames()

// hitTimeLabel renders the paper's "1~" cycle notation.
func hitTimeLabel(cycles int) string { return fmt.Sprintf("%d~", cycles) }
