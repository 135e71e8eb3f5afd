package main

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"time"

	"hbcache/internal/experiments"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
)

// selfUsage is this process's CPU time and peak RSS in MiB.
func selfUsage() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024
}

// recordStore is a runner.Store that keeps nothing between runs but
// records every result the runner puts, so the benchmark sees each
// simulated point of an experiment without changing how hbfigures
// drives the runner. Get always misses.
type recordStore struct {
	mu  sync.Mutex
	pts []point
}

func (s *recordStore) Get(string) (sim.Result, bool) { return sim.Result{}, false }
func (s *recordStore) Put(_ string, cfg sim.Config, res sim.Result) error {
	s.mu.Lock()
	s.pts = append(s.pts, point{cfg, res})
	s.mu.Unlock()
	return nil
}
func (s *recordStore) Keys() ([]string, error) { return nil, nil }
func (s *recordStore) CorruptEntries() int64   { return 0 }

// latencyRecorder turns the runner's serialized progress snapshots into
// per-point latencies: each simulated job adds its wall time to SimWall.
type latencyRecorder struct {
	prev runner.Metrics
	ms   []float64
}

func (l *latencyRecorder) observe(m runner.Metrics) {
	if m.Simulated == l.prev.Simulated+1 {
		l.ms = append(l.ms, ms(m.SimWall-l.prev.SimWall))
	}
	l.prev = m
}

func runnerStatsOf(m runner.Metrics, workers int) runnerStats {
	return runnerStats{
		simulated: float64(m.Simulated), memo: float64(m.MemoHits), cache: float64(m.CacheHits),
		overhead: 1 - m.SimWall.Seconds()/(m.Elapsed.Seconds()*float64(workers)),
	}
}

// warmUp runs one small simulation per benchmark, so the first timed
// pass does not pay for first use of the simulator's code and tables.
func warmUp(ctx context.Context, seed uint64, scale float64) error {
	w := windows{20_000, 1_000, 5_000}.scaled(min(scale, 1))
	return runner.Parallel(ctx, 2, len(benchNames), func(i int) error {
		_, err := sim.RunContext(ctx, baseConfig(benchNames[i], seed, sim.ScaledSRAMSystem(32<<10, 1, duplicate, true, cycleFO4), w), sim.RunOpts{})
		return err
	})
}

// passLoop repeats a fixed-work pass while the next one is predicted
// to end within the phase's seconds; the first pass always runs.
func passLoop(seconds float64, pass func(i int) error) (time.Duration, error) {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i > 0 && (time.Since(start)+last).Seconds() > seconds {
			return time.Since(start), nil
		}
		t := time.Now()
		if err := pass(i); err != nil {
			return time.Since(start), err
		}
		last = time.Since(t)
	}
}

// figuresBench is figures-quick: experiments.All() at hbfigures -quick
// windows on one shared runner with two workers, as hbfigures runs it.
type figuresBench struct{ e *env }

func (b *figuresBench) setup(ctx context.Context, _ int) error {
	return warmUp(ctx, b.e.seed, b.e.scale)
}
func (b *figuresBench) finish() (time.Duration, float64, error) { return 0, 0, nil }

func (b *figuresBench) phase(ctx context.Context, epoch int, tr *tracer) (*phaseResult, error) {
	w := quickWindows.scaled(b.e.scale)
	pr := &phaseResult{}
	cpu0, _ := selfUsage()
	root := tr.begin(nil, "client", "figures-quick")
	wall, err := passLoop(b.e.seconds, func(i int) error {
		store := &recordStore{}
		lat := &latencyRecorder{}
		r, err := runner.New(runner.Options{Workers: 2, Store: store, OnProgress: lat.observe})
		if err != nil {
			return err
		}
		opt := experiments.Options{Seed: b.e.seed, PrewarmInsts: w.prewarm, WarmupInsts: w.warmup,
			MeasureInsts: w.measure, Runner: r, Context: ctx}
		var tables []string
		for _, x := range experiments.All() {
			sp := tr.begin(root, "runner", "experiments."+x.Name)
			tbl, err := x.Run(opt)
			sp.end()
			if err != nil {
				pr.failed++
				return fmt.Errorf("%s: %w", x.Name, err)
			}
			tables = append(tables, tbl.CSV())
		}
		m := r.Metrics()
		pr.points += m.Done
		pr.attempted += m.Submitted
		pr.failed += m.Errors
		pr.latMs = append(pr.latMs, lat.ms...)
		pr.pts = append(pr.pts, store.pts...)
		if i == 0 {
			pr.goldenPts, pr.goldenExtra = store.pts, tables
			pr.run = runnerStatsOf(m, 2)
			for _, p := range store.pts {
				pr.inputs = append(pr.inputs, p.cfg)
			}
		}
		return nil
	})
	root.end()
	pr.wall = wall
	cpu1, rss := selfUsage()
	pr.cpu, pr.rssMB = cpu1-cpu0, rss
	return pr, err
}

// sweepBench is sweep-b16: hbsweep's 432-point design space at its
// default windows through runner.Run with two workers and lockstep
// batches of sixteen.
type sweepBench struct{ e *env }

func (b *sweepBench) setup(ctx context.Context, _ int) error  { return warmUp(ctx, b.e.seed, b.e.scale) }
func (b *sweepBench) finish() (time.Duration, float64, error) { return 0, 0, nil }

func (b *sweepBench) phase(ctx context.Context, epoch int, tr *tracer) (*phaseResult, error) {
	cfgs := sweepConfigs(b.e.seed, sweepWindows.scaled(b.e.scale))
	pr := &phaseResult{inputs: cfgs}
	cpu0, _ := selfUsage()
	root := tr.begin(nil, "client", "sweep-b16")
	wall, err := passLoop(b.e.seconds, func(i int) error {
		r, err := runner.New(runner.Options{Workers: 2, BatchSize: 16})
		if err != nil {
			return err
		}
		sp := tr.begin(root, "runner", "runner.Run")
		jrs, err := r.Run(ctx, cfgs)
		sp.end()
		if err != nil {
			return err
		}
		var pts []point
		for _, jr := range jrs {
			pr.attempted++
			if jr.Err != nil {
				pr.failed++
				continue
			}
			pr.points++
			pts = append(pts, point{jr.Config, jr.Result})
			if jr.Attempts > 0 {
				pr.latMs = append(pr.latMs, ms(jr.Wall))
			}
		}
		pr.pts = append(pr.pts, pts...)
		if i == 0 {
			pr.goldenPts = pts
			pr.run = runnerStatsOf(r.Metrics(), 2)
		}
		return nil
	})
	root.end()
	pr.wall = wall
	cpu1, rss := selfUsage()
	pr.cpu, pr.rssMB = cpu1-cpu0, rss
	return pr, err
}
