// Command hbbench is the repository's benchmark. It drives one named
// workload through the entry points people use — the experiments API as
// hbfigures calls it, runner.Run as hbsweep calls it, and real hbserved
// processes over loopback — checks every output, and prints each
// end-to-end metric by name and unit. With -trace 1 it makes a traced
// run instead: the workload's phase untraced and then traced, followed
// by probes that time each layer's public functions on the workload's
// own inputs, and it prints the per-layer metrics and writes the spans.
//
//	hbbench -workload figures-quick -seed 1 -seconds 15 -trace 0
//	hbbench compare parent.txt change.txt
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Run it through bench.sh from the repository root; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"hbcache/internal/sim"
)

// env is one run's settings.
type env struct {
	root, tmp, bin string // checkout, run directory, hbserved binary
	seed           uint64
	scale, seconds float64
	log            io.Writer
}

// runnerStats are the runner layer's counters over a phase.
type runnerStats struct {
	simulated, memo, cache, overhead float64
}

// phaseResult is what one timed phase did.
type phaseResult struct {
	points, attempted, failed int
	wall, cpu                 time.Duration // cpu: in-process workloads only
	rssMB                     float64
	latMs                     []float64
	pts, goldenPts            []point
	goldenExtra               []string
	inputs                    []sim.Config // local trace refs, for the probes
	run                       runnerStats
}

// bench is one workload. setup prepares everything before the first
// timed operation, for the given number of phases; finish stops what
// setup started and reports the CPU time and peak RSS of any server
// processes (zero for in-process workloads).
type bench interface {
	setup(ctx context.Context, epochs int) error
	phase(ctx context.Context, epoch int, tr *tracer) (*phaseResult, error)
	finish() (cpu time.Duration, rssMB float64, err error)
}

// workloadDef is one workload; BENCHMARK.json says why each exists.
type workloadDef struct {
	name   string
	server bool
	// setups is how many times a run sets up before keeping the last;
	// setup_s reports the median. serve-mixed seeds its store once: its
	// setup is fixed simulation work and steady on its own.
	setups int
	make   func(*env) bench
}

var workloads = []workloadDef{
	{"figures-quick", false, 3,
		func(e *env) bench { return &figuresBench{e: e} }},
	{"sweep-b16", false, 3,
		func(e *env) bench { return &sweepBench{e: e} }},
	{"serve-mixed", true, 1,
		func(e *env) bench { return &serveBench{e: e} }},
	{"cluster-sweep", true, 3,
		func(e *env) bench { return &clusterBench{e: e} }},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(os.Args[2:], os.Stdout)
	} else {
		err = run(ctx, start, os.Args[1:], os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that finished but whose outputs failed a
// check; its result line is still printed.
var errIncorrect = errors.New("output check failed")

// run parses flags, runs one workload and prints its metrics. start is
// when the process started, the origin of setup_s.
func run(ctx context.Context, start time.Time, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: figures-quick, sweep-b16, serve-mixed, cluster-sweep")
		seed     = fs.Uint64("seed", 1, "workload generator and mix shuffle seed")
		seconds  = fs.Float64("seconds", 15, "target length of the timed phase; fixed-work passes never start past it")
		trace    = fs.Int("trace", 0, "1 makes the traced run: per-layer metrics instead of end-to-end ones")
		traceOut = fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
		scale    = fs.Float64("scale", 1, "multiplies every window and job count (tests use a small value)")
		root     = fs.String("root", "../..", "repository checkout to benchmark")
		golden   = fs.String("golden", "", "golden digest file (default cmd/hbbench/testdata/golden-seed1.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *scale <= 0 || *seconds <= 0 || *seed == 0 {
		return fmt.Errorf("-scale, -seconds and -seed must be positive")
	}
	if _, err := os.Stat(filepath.Join(*root, "go.mod")); err != nil {
		return fmt.Errorf("no checkout at %s: %w", *root, err)
	}
	if *root, err = filepath.Abs(*root); err != nil {
		return err
	}
	if *golden == "" {
		*golden = filepath.Join(*root, "cmd", "hbbench", "testdata", "golden-seed1.json")
	}
	buildDir := filepath.Join(*root, ".bench_build")
	if *traceOut == "" {
		*traceOut = filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", def.name, *seed))
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{root: *root, tmp: tmp, seed: *seed, scale: *scale, seconds: *seconds, log: stderr}

	traced := *trace == 1
	if def.server || traced {
		// Built from the tree under test before the setup clock starts.
		e.bin = filepath.Join(tmp, "hbserved")
		if err := buildServer(*root, e.bin); err != nil {
			return err
		}
		start = time.Now()
	}

	epochs := 1
	if traced {
		epochs = 2
	}
	var setups []float64
	var b bench
	for i := 0; i < def.setups; i++ {
		if b != nil {
			if _, _, err := b.finish(); err != nil {
				return err
			}
		}
		t := time.Now()
		if i == 0 {
			t = start
		}
		b = def.make(e)
		if err := b.setup(ctx, epochs); err != nil {
			b.finish()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	res, err := measure(ctx, e, def, b, traced, *traceOut, *golden, median(setups))
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// measure runs the phases, the checks and (traced) the probes, and
// assembles the result. It always calls b.finish.
func measure(ctx context.Context, e *env, def workloadDef, b bench, traced bool, traceOut, golden string, setupS float64) (*result, error) {
	p0, err := b.phase(ctx, 0, nil)
	if err != nil {
		b.finish()
		return nil, fmt.Errorf("phase: %w", err)
	}
	phases := []*phaseResult{p0}
	var tr *tracer
	var p1 *phaseResult
	if traced {
		tr = newTracer()
		if p1, err = b.phase(ctx, 1, tr); err != nil {
			b.finish()
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		phases = append(phases, p1)
	}
	layerM := newMetricSet()
	if traced {
		if err := probe(ctx, e, b, p1, tr, layerM); err != nil {
			b.finish()
			return nil, err
		}
	}
	srvCPU, srvRSS, err := b.finish()
	if err != nil {
		return nil, fmt.Errorf("stopping servers: %w", err)
	}

	res := &result{Correct: true}
	var pts []point
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		pts = append(pts, p.pts...)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(e.log, "hbbench: %s seed %d: %d points in %.2fs, %d failed\n", def.name, e.seed, p0.points, p0.wall.Seconds(), p0.failed)

	d, err := digest(p0.goldenPts, p0.goldenExtra...)
	if err != nil {
		return nil, err
	}
	status := "none"
	if e.seed == 1 {
		res.Attempted++
		if status, err = checkGolden(golden, goldenKey(def.name, e.scale), d); err != nil {
			fmt.Fprintln(e.log, "hbbench:", err)
			res.Correct = false
			res.Failed++
		}
	}
	checked, bad, err := resimSample(ctx, pts, 16, e.seed)
	if err != nil {
		return nil, err
	}
	res.Attempted += checked
	res.Failed += bad
	if bad > 0 {
		res.Correct = false
	}
	fmt.Fprintf(e.log, "hbbench: golden %s (%s), %d/%d re-simulated points identical\n", status, d, checked-bad, checked)

	e2e := newMetricSet()
	e2e.put("setup_s", "s", setupS)
	e2e.put("points_per_s", "1/s", float64(p0.points)/p0.wall.Seconds())
	cpu, rss := p0.cpu, p0.rssMB
	if def.server {
		cpu, rss = srvCPU, srvRSS
	}
	e2e.put("cpu_ms_per_point", "ms", ms(cpu)/float64(max(p0.points, 1)))
	e2e.put("latency_p50_ms", "ms", quantile(p0.latMs, 0.5))
	e2e.put("latency_p95_ms", "ms", quantile(p0.latMs, 0.95))
	e2e.put("max_rss_mb", "MiB", rss)
	fmt.Fprintf(e.log, "%s end to end (seed %d, %d latency samples):\n", def.name, e.seed, len(p0.latMs))
	e2e.print(e.log)

	res.Metrics = e2e.m
	if traced {
		layerM.put("trace.untraced_wall_s", "s", p0.wall.Seconds())
		layerM.put("trace.traced_wall_s", "s", p1.wall.Seconds())
		layerM.put("trace.overhead_share", "ratio", p1.wall.Seconds()/p0.wall.Seconds()-1)
		recs := tr.spans()
		layerM.put("trace.spans", "count", float64(len(recs)))
		self := selfTimes(recs)
		for _, l := range layers {
			layerM.put(l+".self_ms", "ms", ms(self[l]))
		}
		if err := checkSpans(recs); err != nil {
			return nil, err
		}
		if err := writeTrace(traceOut, def.name, e.seed, recs); err != nil {
			return nil, err
		}
		fmt.Fprintf(e.log, "%s per layer (spans in %s):\n", def.name, traceOut)
		layerM.print(e.log)
		res.Metrics = layerM.m
	}
	return res, nil
}

// probe runs the layer probes on the traced phase's inputs.
func probe(ctx context.Context, e *env, b bench, p *phaseResult, tr *tracer, m *metricSet) error {
	pe := &probeEnv{e: e, tr: tr, inputs: p.inputs, pts: p.pts, run: p.run, m: m}
	switch w := b.(type) {
	case *serveBench:
		pe.trace = w.trace
	case *clusterBench:
		pe.trace = w.trace
	default:
		rt, err := recordTrace(e.tmp, e.seed, sweepWindows.scaled(e.scale))
		if err != nil {
			return err
		}
		pe.trace = rt
	}
	if len(pe.inputs) == 0 || len(pe.pts) == 0 {
		return fmt.Errorf("traced phase produced no inputs for the probes")
	}
	return runProbes(ctx, pe)
}
