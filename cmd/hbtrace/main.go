// Command hbtrace steps a simulation cycle by cycle and prints the
// pipeline's state: window and load/store-buffer occupancy, entry
// states, and front-end stalls. It is the debugging companion to hbsim
// — where hbsim summarizes a run, hbtrace shows why cycles are lost.
//
// Examples:
//
//	hbtrace -bench gcc -cycles 60
//	hbtrace -bench database -size 8K -skip 5000 -cycles 40
//	hbtrace -bench tomcatv -summary -cycles 50000
//	hbtrace -resume ckpt.json -cycles 60
//
// With -record it instead captures a workload's instruction stream to a
// compact binary trace file (hbcache-trace-v1) that hbsim -trace and
// trace-backed service jobs replay bit-identically:
//
//	hbtrace -bench gcc -record gcc.trace
//	hbtrace -bench vcs -seed 7 -record vcs.trace -insts 2000000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hbcache/internal/cpu"
	"hbcache/internal/durable"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "gcc", "benchmark: "+strings.Join(workload.BenchmarkNames(), ", "))
		size    = flag.Int("sizekb", 32, "primary data cache size in KB")
		hit     = flag.Int("hit", 1, "primary cache hit time in cycles")
		lb      = flag.Bool("lb", true, "include the line buffer")
		skip    = flag.Uint64("skip", 1000, "cycles to advance before tracing")
		cycles  = flag.Uint64("cycles", 50, "cycles to trace")
		summary = flag.Bool("summary", false, "print only the end-of-trace summary")
		seed    = flag.Uint64("seed", 1, "workload seed")
		resume  = flag.String("resume", "", "trace from this checkpoint instead of a cold machine; config flags are ignored")
		record  = flag.String("record", "", "record the workload to this hbcache-trace-v1 file and exit (no pipeline trace)")
		insts   = flag.Uint64("insts", 0, "instructions to record with -record (0 = enough for a default-window run)")
	)
	flag.Parse()

	if *record != "" {
		n := *insts
		if n == 0 {
			n = sim.DefaultPrewarm + sim.DefaultWarmup + sim.DefaultMeasure + sim.DefaultTraceSlack
		}
		data, err := workload.RecordTrace(*bench, *seed, n)
		if err != nil {
			fatal(err)
		}
		if err := durable.WriteFile(*record, data); err != nil {
			fatal(err)
		}
		tr, err := workload.OpenTraceFile(*record)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %s seed %d: %d instructions, %d bytes (%.2f B/inst)\n",
			*bench, *seed, tr.Count(), len(data), float64(len(data))/float64(tr.Count()))
		fmt.Printf("  file   %s\n", *record)
		fmt.Printf("  digest %s\n", tr.Digest())
		return
	}

	var (
		core *cpu.CPU
		sys  *mem.System
	)
	if *resume != "" {
		// Tracing from a checkpoint shows the pipeline exactly where a
		// long run left off — the usual triage move when a resumed run
		// diverges or stalls. The checkpoint's config is authoritative.
		st, err := sim.ReadSnapshot(*resume, nil)
		if err != nil {
			fatal(err)
		}
		core, sys, _, err = st.Restore()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resumed %s: %s at cycle %d (phase %s)\n", *resume, st.Config.Benchmark, core.Now(), st.Phase)
	} else {
		gen, err := workload.New(*bench, *seed)
		if err != nil {
			fatal(err)
		}
		sys, err = mem.NewSystem(mem.DefaultSRAMSystem(*size<<10, *hit, mem.PortConfig{Kind: mem.DuplicatePorts}, *lb))
		if err != nil {
			fatal(err)
		}
		core, err = cpu.New(cpu.DefaultConfig(), gen, sys.L1)
		if err != nil {
			fatal(err)
		}
	}

	for i := uint64(0); i < *skip; i++ {
		core.Step()
	}
	if !*summary {
		fmt.Printf("%-8s %-7s %-5s %-8s %-9s %-9s %-5s %-6s %-8s %s\n",
			"cycle", "window", "lsq", "waiting", "executing", "wantport", "done", "head", "headage", "frontend")
	}
	var fetchBlockedCycles, portWaitCycles uint64
	for i := uint64(0); i < *cycles; i++ {
		core.Step()
		snap := core.Snapshot()
		if snap.FetchBlocked {
			fetchBlockedCycles++
		}
		portWaitCycles += uint64(snap.WantPort)
		if *summary {
			continue
		}
		fe := "fetching"
		if snap.FetchBlocked {
			fe = "BLOCKED"
		}
		fmt.Printf("%-8d %2d/64   %2d/32 %-8d %-9d %-9d %-5d %-6v %-8d %s\n",
			snap.Cycle, snap.WindowOccupancy, snap.LSQOccupancy,
			snap.Waiting, snap.Executing, snap.WantPort, snap.Done,
			snap.HeadOp, snap.HeadAge, fe)
	}

	s := core.Stats()
	fmt.Printf("\nsummary over %d traced cycles (after %d skipped):\n", *cycles, *skip)
	fmt.Printf("  IPC                  %.3f\n", s.IPC())
	fmt.Printf("  mean window occupancy %.1f / 64\n", s.MeanWindowOccupancy())
	fmt.Printf("  mean LSQ occupancy    %.1f / 32\n", s.MeanLSQOccupancy())
	fmt.Printf("  front-end blocked     %.1f%% of traced cycles\n", 100*float64(fetchBlockedCycles)/float64(*cycles))
	fmt.Printf("  loads awaiting ports  %.2f mean per traced cycle\n", float64(portWaitCycles)/float64(*cycles))
	fmt.Printf("  issue histogram       ")
	for n, c := range s.IssuedHistogram {
		if c > 0 {
			fmt.Printf("%d:%d ", n, c)
		}
	}
	fmt.Println()
	fmt.Printf("  L1: %d loads, %d misses, %d LB hits, %d port retries\n",
		sys.L1.Loads(), sys.L1.LoadMisses(), sys.L1.LineBufferHits(), sys.L1.PortRetries())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hbtrace:", err)
	os.Exit(1)
}
