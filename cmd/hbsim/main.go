// Command hbsim runs one cache-configuration simulation and prints a
// performance report: IPC, miss rates, line-buffer effectiveness,
// branch prediction accuracy, and stall breakdowns.
//
// Examples:
//
//	hbsim -bench gcc -size 32K -hit 1 -ports duplicate -lb
//	hbsim -bench tomcatv -size 512K -hit 2 -ports banked -banks 8
//	hbsim -bench database -dram 6 -lb
//	hbsim -bench gcc -size 64K -hit 1 -ports duplicate -lb -cycle 29
//	hbsim -bench gcc -insts 24000000 -sample 24000,1500,500
//	hbsim -bench gcc -max-cycles 100000 -snapshot ckpt.json
//	hbsim -resume ckpt.json
//	hbsim -trace gcc.trace -size 64K -lb      # replay an hbtrace recording
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "gcc", "benchmark: "+strings.Join(workload.BenchmarkNames(), ", "))
		size    = flag.String("size", "32K", "primary data cache size (e.g. 8K, 512K, 1M)")
		hit     = flag.Int("hit", 1, "primary cache hit time in cycles (1-3, pipelined)")
		ports   = flag.String("ports", "duplicate", "port organization: ideal, duplicate, banked")
		nports  = flag.Int("n", 2, "ideal port count (with -ports ideal)")
		banks   = flag.Int("banks", 8, "bank count (with -ports banked)")
		lb      = flag.Bool("lb", false, "add the 32-entry line buffer")
		dram    = flag.Int("dram", 0, "use the 4 MB on-chip DRAM cache with this hit time (6-8); overrides -size/-hit/-ports")
		cycle   = flag.Float64("cycle", 25, "processor cycle time in FO4 (scales L2/memory latencies and bus widths)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		measure = flag.Uint64("insts", sim.DefaultMeasure, "instructions to measure")
		prewarm = flag.String("prewarm-mode", "", "prewarm mode: fast-forward (default) or timing")
		timeout = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited); exceeding it is an error")
		maxCyc  = flag.Uint64("max-cycles", 0, "simulated-cycle budget for the run (0 = unlimited); exceeding it is an error")
		chk     = flag.Bool("check", false, "run with cycle-level invariant checking (slow; fails on any machine-state violation)")
		snapOut = flag.String("snapshot", "", "checkpoint file: written at -snapshot-at cycles, and on budget abort so the run can be resumed")
		snapAt  = flag.Uint64("snapshot-at", 0, "simulated cycle at which to write the -snapshot checkpoint (0 = only on abort)")
		resume  = flag.String("resume", "", "resume from this checkpoint; its embedded config replaces the config flags")
		sample  = flag.String("sample", "", "interval sampling plan \"interval,window,warmup\" in instructions (e.g. 24000,1500,500)")
		traceIn = flag.String("trace", "", "replay this recorded trace (hbtrace -record) instead of the synthetic workload; -bench/-seed come from the recording")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
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

	var memory mem.SystemConfig
	if *dram > 0 {
		memory = mem.DefaultDRAMSystem(*dram, *lb)
	} else {
		bytes, err := parseSize(*size)
		if err != nil {
			fatal(err)
		}
		var pc mem.PortConfig
		switch *ports {
		case "ideal":
			pc = mem.PortConfig{Kind: mem.IdealPorts, Count: *nports}
		case "duplicate":
			pc = mem.PortConfig{Kind: mem.DuplicatePorts}
		case "banked":
			pc = mem.PortConfig{Kind: mem.BankedPorts, Count: *banks}
		default:
			fatal(fmt.Errorf("unknown port organization %q", *ports))
		}
		memory = sim.ScaledSRAMSystem(bytes, *hit, pc, *lb, *cycle)
	}

	cfg := sim.Config{
		Benchmark:    *bench,
		Seed:         *seed,
		CPU:          cpu.DefaultConfig(),
		Memory:       memory,
		MeasureInsts: *measure,
		PrewarmMode:  sim.PrewarmMode(*prewarm),
	}
	if *sample != "" {
		spec, err := parseSample(*sample)
		if err != nil {
			fatal(err)
		}
		cfg.Sample = spec
	}
	if *traceIn != "" {
		// The recording carries the workload identity; pin its content
		// digest now so the run (and any cache key derived from the
		// config) can never silently replay different bytes.
		tr, err := workload.OpenTraceFile(*traceIn)
		if err != nil {
			fatal(err)
		}
		hdr := tr.Header()
		cfg.Benchmark, cfg.Seed = hdr.Benchmark, hdr.Seed
		cfg.Trace = &sim.TraceRef{Path: *traceIn, Digest: tr.Digest()}
		fmt.Printf("replaying            %s (%s seed %d, %d recorded insts, digest %.12s…)\n",
			*traceIn, hdr.Benchmark, hdr.Seed, tr.Count(), tr.Digest())
		if total := cfg.WithDefaults(); tr.Count() < total.PrewarmInsts+total.WarmupInsts+total.MeasureInsts {
			fmt.Fprintf(os.Stderr, "hbsim: warning: recording holds %d instructions but the run wants %d (prewarm %d + warmup %d + measure %d); the run will starve early — re-record with a larger -insts or shrink the windows\n",
				tr.Count(), total.PrewarmInsts+total.WarmupInsts+total.MeasureInsts, total.PrewarmInsts, total.WarmupInsts, total.MeasureInsts)
		}
	}
	if *resume != "" {
		// A checkpoint only resumes onto the exact machine it captured,
		// so the embedded config is the config — the flags above are
		// ignored rather than silently mismatched.
		st, err := sim.ReadSnapshot(*resume, nil)
		if err != nil {
			fatal(err)
		}
		cfg = st.Config
		fmt.Printf("resuming             %s (%s, phase %s)\n", *resume, cfg.Benchmark, st.Phase)
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	res, err := sim.RunContext(context.Background(), cfg, sim.RunOpts{
		Timeout:         *timeout,
		MaxCycles:       *maxCyc,
		Check:           *chk,
		Resume:          *resume,
		SnapshotPath:    *snapOut,
		SnapshotAt:      *snapAt,
		SnapshotOnAbort: *snapOut,
	})
	if err != nil {
		fatal(err)
	}

	s := res.CPUStats
	fmt.Printf("benchmark            %s\n", res.Benchmark)
	if *dram > 0 {
		fmt.Printf("configuration        16K row-buffer cache + 4 MB DRAM cache (%d~), line buffer: %v\n", *dram, *lb)
	} else {
		fmt.Printf("configuration        %s %d~ %s, line buffer: %v, cycle %.1f FO4\n", *size, *hit, *ports, *lb, *cycle)
	}
	fmt.Printf("instructions         %d\n", res.Instructions)
	fmt.Printf("cycles               %d\n", res.Cycles)
	fmt.Printf("IPC                  %.3f\n", res.IPC)
	fmt.Printf("exec time            %.2f ns/inst\n", sim.ExecutionTimeNs(res, *cycle))
	fmt.Printf("L1 misses/inst       %.2f%%\n", 100*res.MissesPerInst)
	fmt.Printf("line buffer hit/load %.1f%%\n", 100*res.LineBufferHitRate)
	fmt.Printf("branch accuracy      %.1f%%\n", 100*res.BranchAccuracy)
	fmt.Printf("mean load latency    %.2f cycles\n", res.MeanLoadLatency)
	fmt.Printf("loads / stores       %d / %d\n", s.Loads, s.Stores)
	fmt.Printf("forwarded loads      %d\n", s.LoadForwarded)
	fmt.Printf("stalls (window/LSQ/fetch/storebuf) %d / %d / %d / %d\n",
		s.WindowFull, s.LSQFull, s.FetchBlocked, s.StoreBufStalls)
	if sm := res.Sampled; sm != nil {
		fmt.Printf("sampled              %d windows, %d/%d insts timed, %.1fx timed-cycle speedup, ±%.2f%% IPC (95%% CI)\n",
			sm.Windows, sm.TimedInsts, sm.TotalInsts, sm.Speedup, 100*sm.IPCErrorBound)
	}
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

func parseSize(s string) (int, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hbsim:", err)
	os.Exit(1)
}
