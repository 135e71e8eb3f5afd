// Command hbsweep runs a cartesian design-space sweep and emits one CSV
// row per configuration — the tool for custom studies beyond the
// paper's figures.
//
// Points execute in parallel across -j workers (default: all CPUs) but
// rows are always emitted in sweep order, so the CSV is byte-identical
// at any worker count. With -cache-dir set, completed points are
// checkpointed to a content-addressed store: re-running an identical
// sweep (or resuming one interrupted with Ctrl-C) replays finished
// points from disk instead of re-simulating them.
//
// Examples:
//
//	hbsweep -bench gcc,tomcatv -sizes 8K,32K,128K -hits 1,2 -ports duplicate,banked8
//	hbsweep -bench all -sizes 32K -hits 1 -ports duplicate -lb both -cycle 20
//	hbsweep -bench database -sizes 4K,16K,64K,256K,1M -hits 1,2,3 -ports ideal2 > sweep.csv
//	hbsweep -bench all -sizes 4K,8K,16K,32K,64K -hits 1,2,3 -j 16 -cache-dir ~/.hbcache -progress
//	hbsweep -bench all -sizes 8K,32K,128K -insts 24000000 -sample 24000,1500,500
//	hbsweep -bench all -sizes 8K,32K -snapshot-dir ~/.hbcache/snap -max-cycles 50000000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// sweepSpec is a fully parsed sweep: the cartesian design space plus
// execution knobs.
type sweepSpec struct {
	benches     []string
	sizes       []int
	hits        []int
	ports       []mem.PortConfig
	lbs         []bool
	cycle       float64
	seed        uint64
	prewarm     uint64
	warmup      uint64
	insts       uint64
	prewarmMode sim.PrewarmMode
	sample      *sim.SampleSpec

	workers     int
	batchSize   int
	cacheDir    string
	snapshotDir string
	progress    bool
	timeout     time.Duration
	maxCycles   uint64
	check       bool
}

func main() {
	var (
		benches  = flag.String("bench", "gcc", "comma-separated benchmarks, or 'all'")
		sizes    = flag.String("sizes", "32K", "comma-separated cache sizes (e.g. 8K,32K,1M)")
		hits     = flag.String("hits", "1", "comma-separated hit times in cycles")
		ports    = flag.String("ports", "duplicate", "comma-separated organizations: duplicate, idealN, bankedN")
		lb       = flag.String("lb", "on", "line buffer: on, off, or both")
		cycle    = flag.Float64("cycle", 25, "processor cycle time in FO4")
		seed     = flag.Uint64("seed", 1, "workload seed")
		prewarm  = flag.Uint64("prewarm", 0, "prewarm instructions per point (0 = sim default)")
		warmup   = flag.Uint64("warmup", 0, "timed warm-up instructions per point (0 = sim default)")
		insts    = flag.Uint64("insts", sim.DefaultMeasure, "measured instructions per point")
		pwMode   = flag.String("prewarm-mode", "", "prewarm mode: fast-forward (default) or timing")
		workers  = flag.Int("j", runtime.NumCPU(), "parallel simulation workers")
		batch    = flag.Int("batch", 1, "lockstep simulations per worker: each worker steps up to N points as one batch, sharing stream generation and prewarm (1 = off; ignored with -snapshot-dir)")
		cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory (empty = caching off)")
		snapDir  = flag.String("snapshot-dir", "", "checkpoint directory: sweep neighbors share prewarm snapshots and budget-truncated points park resumable checkpoints here")
		sample   = flag.String("sample", "", "interval sampling plan \"interval,window,warmup\" in instructions, applied to every point")
		progress = flag.Bool("progress", false, "report progress on stderr while the sweep runs")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per point (0 = unlimited); a point over budget fails the sweep")
		maxCyc   = flag.Uint64("max-cycles", 0, "simulated-cycle budget per point (0 = unlimited)")
		chk      = flag.Bool("check", false, "run every point with cycle-level invariant checking (slow)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	spec := sweepSpec{
		cycle:       *cycle,
		seed:        *seed,
		prewarm:     *prewarm,
		warmup:      *warmup,
		insts:       *insts,
		prewarmMode: sim.PrewarmMode(*pwMode),
		workers:     *workers,
		batchSize:   *batch,
		cacheDir:    *cacheDir,
		snapshotDir: *snapDir,
		progress:    *progress,
		timeout:     *timeout,
		maxCycles:   *maxCyc,
		check:       *chk,
	}
	var err error
	if *sample != "" {
		if spec.sample, err = parseSample(*sample); err != nil {
			fatal(err)
		}
	}
	if spec.benches, err = parseBenches(*benches); err != nil {
		fatal(err)
	}
	if spec.sizes, err = parseList(*sizes, parseSize); err != nil {
		fatal(err)
	}
	if spec.hits, err = parseList(*hits, strconv.Atoi); err != nil {
		fatal(err)
	}
	if spec.ports, err = parseList(*ports, parsePorts); err != nil {
		fatal(err)
	}
	if spec.lbs, err = parseLB(*lb); err != nil {
		fatal(err)
	}

	// Ctrl-C cancels cleanly: in-flight points drain, completed points
	// are already checkpointed to -cache-dir, and the next identical
	// invocation resumes from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if _, err := runSweep(ctx, os.Stdout, os.Stderr, spec); err != nil {
		fatal(err)
	}
}

// configs expands the sweep's cartesian product in output order.
func (s sweepSpec) configs() []sim.Config {
	var cfgs []sim.Config
	for _, bench := range s.benches {
		for _, size := range s.sizes {
			for _, hit := range s.hits {
				for _, pc := range s.ports {
					for _, useLB := range s.lbs {
						cfg := sim.Config{
							Benchmark:    bench,
							Seed:         s.seed,
							CPU:          cpu.DefaultConfig(),
							Memory:       sim.ScaledSRAMSystem(size, hit, pc, useLB, s.cycle),
							PrewarmInsts: s.prewarm,
							WarmupInsts:  s.warmup,
							MeasureInsts: s.insts,
							PrewarmMode:  s.prewarmMode,
						}
						if s.sample != nil {
							spec := *s.sample // each point owns its plan
							cfg.Sample = &spec
						}
						cfgs = append(cfgs, cfg)
					}
				}
			}
		}
	}
	return cfgs
}

// runSweep executes the sweep through the runner and writes the CSV to
// out. Row order follows the cartesian expansion regardless of worker
// count or completion order. The returned metrics report how the work
// was satisfied (simulated, cache hits, dedup).
func runSweep(ctx context.Context, out, errw io.Writer, spec sweepSpec) (runner.Metrics, error) {
	opts := runner.Options{
		Workers:      spec.workers,
		BatchSize:    spec.batchSize,
		CacheDir:     spec.cacheDir,
		SnapshotDir:  spec.snapshotDir,
		SimTimeout:   spec.timeout,
		SimMaxCycles: spec.maxCycles,
		SimCheck:     spec.check,
	}
	if spec.progress {
		opts.OnProgress = func(m runner.Metrics) {
			fmt.Fprintf(errw, "\r%d/%d sims, %d cache hits, %.1f sims/s ", m.Done, m.Submitted, m.CacheHits, m.Rate())
		}
	}
	r, err := runner.New(opts)
	if err != nil {
		return runner.Metrics{}, err
	}

	cfgs := spec.configs()
	jrs, err := r.Run(ctx, cfgs)
	if spec.progress {
		fmt.Fprintln(errw)
	}
	if err != nil {
		return r.Metrics(), err
	}
	fmt.Fprintln(out, "benchmark,size,hit_cycles,ports,line_buffer,cycle_fo4,ipc,exec_ns_per_inst,misses_per_inst,lb_hit_rate,branch_accuracy,mean_load_latency")
	for _, jr := range jrs {
		if jr.Err != nil {
			return r.Metrics(), jr.Err
		}
		res, cfg := jr.Result, jr.Config
		fmt.Fprintf(out, "%s,%d,%d,%s,%v,%g,%.4f,%.4f,%.5f,%.4f,%.4f,%.3f\n",
			cfg.Benchmark, cfg.Memory.L1.Bytes, cfg.Memory.L1.HitCycles,
			portName(cfg.Memory.L1.Ports), cfg.Memory.L1.LineBuffer, spec.cycle,
			res.IPC, sim.ExecutionTimeNs(res, spec.cycle), res.MissesPerInst,
			res.LineBufferHitRate, res.BranchAccuracy, res.MeanLoadLatency)
	}
	m := r.Metrics()
	if spec.cacheDir != "" {
		fmt.Fprintf(errw, "hbsweep: %d points (%d simulated, %d cache hits, %d deduplicated) in %.1fs\n",
			m.Done, m.Simulated, m.CacheHits, m.MemoHits, m.Elapsed.Seconds())
	}
	return m, nil
}

func parseBenches(s string) ([]string, error) {
	if s == "all" {
		return workload.BenchmarkNames(), nil
	}
	names := strings.Split(s, ",")
	for _, n := range names {
		if _, err := workload.ModelFor(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}

func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseSize(s string) (int, error) {
	s = strings.ToUpper(s)
	mult := 1
	switch {
	case strings.HasSuffix(s, "M"):
		mult = 1 << 20
		s = strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = strings.TrimSuffix(s, "K")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// parseSample decodes "interval,window,warmup" (instruction counts)
// into a sampling plan.
func parseSample(s string) (*sim.SampleSpec, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -sample %q: want \"interval,window,warmup\"", s)
	}
	var vals [3]uint64
	for i, p := range parts {
		n, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -sample %q: %v", s, err)
		}
		vals[i] = n
	}
	return &sim.SampleSpec{IntervalInsts: vals[0], WindowInsts: vals[1], WarmupInsts: vals[2]}, nil
}

func parsePorts(s string) (mem.PortConfig, error) {
	switch {
	case s == "duplicate":
		return mem.PortConfig{Kind: mem.DuplicatePorts}, nil
	case strings.HasPrefix(s, "ideal"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "ideal"))
		if err != nil || n <= 0 {
			return mem.PortConfig{}, fmt.Errorf("bad ideal port spec %q (want e.g. ideal2)", s)
		}
		return mem.PortConfig{Kind: mem.IdealPorts, Count: n}, nil
	case strings.HasPrefix(s, "banked"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "banked"))
		if err != nil || n <= 0 {
			return mem.PortConfig{}, fmt.Errorf("bad banked spec %q (want e.g. banked8)", s)
		}
		return mem.PortConfig{Kind: mem.BankedPorts, Count: n}, nil
	default:
		return mem.PortConfig{}, fmt.Errorf("unknown port organization %q", s)
	}
}

func portName(pc mem.PortConfig) string {
	switch pc.Kind {
	case mem.DuplicatePorts:
		return "duplicate"
	case mem.IdealPorts:
		return fmt.Sprintf("ideal%d", pc.Count)
	case mem.BankedPorts:
		return fmt.Sprintf("banked%d", pc.Count)
	}
	return "?"
}

func parseLB(s string) ([]bool, error) {
	switch s {
	case "on":
		return []bool{true}, nil
	case "off":
		return []bool{false}, nil
	case "both":
		return []bool{false, true}, nil
	default:
		return nil, fmt.Errorf("bad -lb value %q (want on, off, both)", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hbsweep:", err)
	os.Exit(1)
}
