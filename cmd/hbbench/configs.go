package main

import (
	"math"
	"math/rand/v2"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// windows are a config's prewarm, warm-up and measured instruction
// counts.
type windows struct{ prewarm, warmup, measure uint64 }

// The workloads' windows at scale 1, frozen with the sizes in
// BENCHMARK.json's README: hbfigures -quick, hbsweep's defaults, and
// the tiny service and cluster windows where per-job overheads are a
// large share of each job.
var (
	quickWindows   = windows{300_000, 10_000, 60_000}
	sweepWindows   = windows{sim.DefaultPrewarm, sim.DefaultWarmup, sim.DefaultMeasure}
	serveWindows   = windows{100_000, 5_000, 25_000}
	clusterWindows = windows{50_000, 2_000, 10_000}
)

// scaled shrinks the windows for smoke runs; every window stays at
// least one instruction, the smallest sim.Config.Validate accepts.
func (w windows) scaled(s float64) windows {
	f := func(n uint64) uint64 { return uint64(max(1, math.Round(float64(n)*s))) }
	return windows{f(w.prewarm), f(w.warmup), f(w.measure)}
}

func scaledCount(n int, s float64) int { return max(1, int(math.Round(float64(n)*s))) }

// baseConfig is a default-processor config with the given memory.
func baseConfig(bench string, seed uint64, m mem.SystemConfig, w windows) sim.Config {
	return sim.Config{
		Benchmark: bench, Seed: seed, CPU: cpu.DefaultConfig(), Memory: m,
		PrewarmInsts: w.prewarm, WarmupInsts: w.warmup, MeasureInsts: w.measure,
	}
}

var (
	ideal2     = mem.PortConfig{Kind: mem.IdealPorts, Count: 2}
	banked8    = mem.PortConfig{Kind: mem.BankedPorts, Count: 8}
	duplicate  = mem.PortConfig{Kind: mem.DuplicatePorts}
	cycleFO4   = 25.0 // hbsweep's default processor cycle time
	benchNames = workload.BenchmarkNames()
)

// sweepConfigs is hbsweep -bench all -sizes 16K,32K,64K,128K
// -ports ideal2,banked8,duplicate -lb both -hits 1,2 at the given
// windows, in hbsweep's row order.
func sweepConfigs(seed uint64, w windows) []sim.Config {
	var cfgs []sim.Config
	for _, b := range benchNames {
		for _, size := range []int{16 << 10, 32 << 10, 64 << 10, 128 << 10} {
			for _, hit := range []int{1, 2} {
				for _, pc := range []mem.PortConfig{ideal2, banked8, duplicate} {
					for _, lb := range []bool{false, true} {
						cfgs = append(cfgs, baseConfig(b, seed, sim.ScaledSRAMSystem(size, hit, pc, lb, cycleFO4), w))
					}
				}
			}
		}
	}
	return cfgs
}

// smallSpace is the 48 memory systems fresh and seeded service configs
// draw from: 8K-64K, three organizations, line buffer off and on, one
// and two cycle hits.
func smallSpace() []mem.SystemConfig {
	var out []mem.SystemConfig
	for _, size := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		for _, pc := range []mem.PortConfig{ideal2, banked8, duplicate} {
			for _, lb := range []bool{false, true} {
				for _, hit := range []int{1, 2} {
					out = append(out, sim.ScaledSRAMSystem(size, hit, pc, lb, cycleFO4))
				}
			}
		}
	}
	return out
}

// wideSpace enumerates trace-backed memory systems: index i selects one
// of 432 organizations (4K-1M, eight port organizations, line buffer,
// one to three cycle hits); past 432 the cycle time moves by one FO4
// per lap, so every index is a distinct config.
func wideSpace(i int, perm []int) mem.SystemConfig {
	ports := []mem.PortConfig{
		{Kind: mem.IdealPorts, Count: 1}, ideal2, {Kind: mem.IdealPorts, Count: 3}, {Kind: mem.IdealPorts, Count: 4},
		{Kind: mem.BankedPorts, Count: 2}, {Kind: mem.BankedPorts, Count: 4}, banked8, duplicate,
	}
	j := perm[i%len(perm)]
	size := 4 << 10 << (j % 9)
	j /= 9
	pc := ports[j%8]
	j /= 8
	lb := j%2 == 1
	hit := j/2 + 1
	return sim.ScaledSRAMSystem(size, hit, pc, lb, cycleFO4+float64(i/len(perm)))
}

const wideSpaceSize = 9 * 8 * 2 * 3

// seedBase spreads generator seeds so every (run seed, epoch, class)
// draws streams no other draws.
func seedBase(seed uint64, epoch, class int) uint64 {
	return seed*10_000_000 + uint64(epoch)*1_000_000 + uint64(class)*100_000
}

// traceSource is the synthetic stream a workload records as its trace.
func traceSource(seed uint64) (string, uint64) {
	return benchNames[seed%uint64(len(benchNames))], seedBase(seed, 9, 9)
}

// jobClass is a serve-mixed job's kind.
type jobClass int

const (
	classFresh    jobClass = iota // simulate, then write the disk store
	classCached                   // seeded during setup: a store read
	classResubmit                 // a job already submitted this run: service dedup
	classTraced                   // trace resolve, replay, store write
)

var classNames = [...]string{"fresh", "cached", "resubmit", "traced"}

// serveJob is one closed-loop request.
type serveJob struct {
	class jobClass
	cfg   sim.Config // as submitted (trace refs by digest only)
	of    int        // classResubmit: index of the job it repeats
}

// serveMix builds epoch's job sequence: blocks of ten jobs (four fresh,
// three cached, two resubmits, one traced) each shuffled by the seed,
// and the cached configs setup must seed into the disk store. Every
// choice draws from a stream of its own, so the first k jobs do not
// depend on how many follow them.
func serveMix(seed uint64, epoch, n int, w windows, trace sim.TraceRef) (jobs []serveJob, pool []sim.Config) {
	stream := func(i uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, uint64(epoch)*8+i)) }
	order, picks := stream(1), stream(2)
	widePerm := stream(3).Perm(wideSpaceSize)
	space := smallSpace()
	block := []jobClass{classFresh, classFresh, classFresh, classFresh,
		classCached, classCached, classCached, classResubmit, classResubmit, classTraced}
	var classes []jobClass
	for len(classes) < n {
		b := append([]jobClass(nil), block...)
		order.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		classes = append(classes, b...)
	}

	var fresh, traced int
	var originals []int
	for i, c := range classes[:n] {
		j := serveJob{class: c}
		switch c {
		case classResubmit:
			if len(originals) == 0 {
				j.class = classFresh
				break
			}
			j.of = originals[picks.IntN(len(originals))]
			j.cfg = jobs[j.of].cfg
		case classCached:
			p := len(pool)
			j.cfg = baseConfig(benchNames[p%len(benchNames)], seedBase(seed, epoch, int(classCached))+uint64(p/(len(benchNames)*len(space))),
				space[p/len(benchNames)%len(space)], w)
			pool = append(pool, j.cfg)
		case classTraced:
			// Epochs take disjoint laps of the wide space; one epoch's
			// traced jobs (a tenth of at most serveJobs) fit in a lap.
			tb, ts := traceSource(seed)
			j.cfg = baseConfig(tb, ts, wideSpace(epoch*wideSpaceSize+traced, widePerm), w)
			ref := trace
			j.cfg.Trace = &ref
			traced++
		}
		if j.class == classFresh {
			j.cfg = baseConfig(benchNames[picks.IntN(len(benchNames))], seedBase(seed, epoch, int(classFresh))+uint64(fresh),
				space[picks.IntN(len(space))], w)
			fresh++
		}
		if j.class != classResubmit {
			originals = append(originals, i)
		}
		jobs = append(jobs, j)
	}
	return jobs, pool
}

// clusterSweep builds sweep k's points: fresh configs, with one point in
// eight trace-backed, in a seed-shuffled order.
func clusterSweep(seed uint64, k, n int, w windows, trace sim.TraceRef) []sim.Config {
	rng := rand.New(rand.NewPCG(seed, uint64(k)+1000))
	widePerm := rand.New(rand.NewPCG(seed, 999)).Perm(wideSpaceSize)
	space := smallSpace()
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		if i%8 == 7 {
			tb, ts := traceSource(seed)
			cfgs[i] = baseConfig(tb, ts, wideSpace(k*n/8+i/8, widePerm), w)
			ref := trace
			cfgs[i].Trace = &ref
			continue
		}
		cfgs[i] = baseConfig(benchNames[rng.IntN(len(benchNames))], seedBase(seed, 0, 5)+uint64(k*n+i),
			space[rng.IntN(len(space))], w)
	}
	rng.Shuffle(n, func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	return cfgs
}

// localRef returns cfg with its trace ref pointing at the benchmark's
// own copy of the trace, for in-process re-simulation and probes.
func localRef(cfg sim.Config, tracePath string) sim.Config {
	if cfg.Trace != nil {
		cfg.Trace = &sim.TraceRef{Path: tracePath, Digest: cfg.Trace.Digest}
	}
	return cfg
}
