package check

import (
	"fmt"
	"math"
	"sync/atomic"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// DiffConfig describes one differential run: the same workload and
// seed are fed to the out-of-order timing pipeline and to the golden
// in-order model, and their architectural event totals are compared.
type DiffConfig struct {
	// Benchmark names a Table 2 workload model.
	Benchmark string
	// Seed selects the deterministic trace.
	Seed uint64
	// CPU and Memory configure the timing machine under test.
	CPU    cpu.Config
	Memory mem.SystemConfig
	// Insts is the target instruction count for the timing run. The
	// out-of-order core may overshoot by up to its retire width minus
	// one; the golden model then runs exactly as many instructions as
	// the pipeline actually retired.
	Insts uint64
	// CheckInvariants additionally installs the cycle-level invariant
	// checker on the timing run.
	CheckInvariants bool
}

// Report holds both machines' totals plus the timing model's own miss
// counters for the tolerance cross-check.
type Report struct {
	Golden Totals
	OOO    Totals
	// OOOStats are the timing core's statistics for the same run.
	OOOStats cpu.Stats
	// TimingL1PrimaryMisses and TimingL2Misses are the timing
	// hierarchy's counters. They are NOT expected to equal the
	// functional counts exactly — post-retirement store drain reorders
	// references, forwarded loads never reach the cache, and MSHR
	// merges collapse misses — but on line-buffer-free,
	// victim-cache-free configurations they must land close.
	TimingL1PrimaryMisses uint64
	TimingL2Misses        uint64
}

// RunDifferential executes the timing machine, replays its retired
// stream through a functional hierarchy (via Recorder), runs the
// golden model for exactly as many instructions, and returns all
// three views. Callers then assert with Compare and CrossCheck.
func RunDifferential(cfg DiffConfig) (*Report, error) {
	gen, err := workload.New(cfg.Benchmark, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := mem.NewSystem(cfg.Memory)
	if err != nil {
		return nil, err
	}
	core, err := cpu.New(cfg.CPU, gen, sys.L1)
	if err != nil {
		return nil, err
	}
	rec, err := NewRecorder(cfg.Memory)
	if err != nil {
		return nil, err
	}
	var inv *Invariants
	if cfg.CheckInvariants {
		var stop atomic.Bool
		core.SetBudget(&stop, 0)
		inv = NewInvariants(core, sys, &stop)
		core.SetChecker(Multi(rec, inv))
	} else {
		core.SetChecker(rec)
	}

	stats := core.Run(cfg.Insts)
	if inv != nil && inv.Err() != nil {
		return nil, inv.Err()
	}
	if err := rec.Err(); err != nil {
		return nil, err
	}
	if stats.Retired < cfg.Insts {
		return nil, fmt.Errorf("check: timing run retired %d of %d instructions", stats.Retired, cfg.Insts)
	}

	// The golden model consumes its own identical generator and runs
	// exactly as many instructions as the pipeline retired.
	goldenGen, err := workload.New(cfg.Benchmark, cfg.Seed)
	if err != nil {
		return nil, err
	}
	golden, err := NewGolden(goldenGen, cfg.Memory)
	if err != nil {
		return nil, err
	}
	if err := golden.Run(rec.Totals().Retired); err != nil {
		return nil, err
	}

	return &Report{
		Golden:                golden.Totals(),
		OOO:                   rec.Totals(),
		OOOStats:              stats,
		TimingL1PrimaryMisses: sys.L1.MSHRs().PrimaryMisses(),
		TimingL2Misses:        sys.Lower.Misses(),
	}, nil
}

// Compare demands exact agreement between the golden model and the
// replayed retired stream, field by field, and additionally checks
// the totals against the timing core's own Stats counters.
func (r *Report) Compare() error {
	g, o := r.Golden, r.OOO
	type cmp struct {
		name string
		g, o uint64
	}
	for _, c := range []cmp{
		{"retired", g.Retired, o.Retired},
		{"loads", g.Loads, o.Loads},
		{"stores", g.Stores, o.Stores},
		{"branches", g.Branches, o.Branches},
		{"taken branches", g.TakenBranches, o.TakenBranches},
		{"kernel instructions", g.Kernel, o.Kernel},
		{"L1 misses", g.L1Misses, o.L1Misses},
		{"L2 misses", g.L2Misses, o.L2Misses},
		{"stream hash", g.StreamHash, o.StreamHash},
	} {
		if c.g != c.o {
			return fmt.Errorf("check: %s diverge: golden %d, out-of-order %d", c.name, c.g, c.o)
		}
	}
	// The core counts Retired and Stores at retirement — those must
	// match the replayed stream exactly. Loads and Branches are counted
	// at dispatch, so instructions still in flight when the run stops
	// leave the core's counters slightly ahead; they may never be
	// behind.
	s := r.OOOStats
	for _, c := range []cmp{
		{"core retired count", s.Retired, o.Retired},
		{"core store count", s.Stores, o.Stores},
	} {
		if c.g != c.o {
			return fmt.Errorf("check: %s %d disagrees with replayed stream %d", c.name, c.g, c.o)
		}
	}
	if s.Loads < o.Loads {
		return fmt.Errorf("check: core dispatched %d loads but %d retired", s.Loads, o.Loads)
	}
	if s.Branches < o.Branches {
		return fmt.Errorf("check: core dispatched %d branches but %d retired", s.Branches, o.Branches)
	}
	return nil
}

// CrossCheck compares the timing hierarchy's miss counters against
// the functional model's within a relative tolerance. Only meaningful
// on configurations without a line buffer or victim cache (both
// absorb references before they reach the L1 counters). The timing
// model's primary-miss counter excludes MSHR merges and forwarded
// loads, so small divergence is expected; gross divergence means the
// two models disagree about cache geometry or replacement.
func (r *Report) CrossCheck(tol float64) error {
	rel := func(a, b uint64) float64 {
		if a == b {
			return 0
		}
		den := math.Max(float64(a), float64(b))
		return math.Abs(float64(a)-float64(b)) / den
	}
	if d := rel(r.TimingL1PrimaryMisses, r.Golden.L1Misses); d > tol {
		return fmt.Errorf("check: timing L1 primary misses %d vs functional %d: relative gap %.3f exceeds %.3f",
			r.TimingL1PrimaryMisses, r.Golden.L1Misses, d, tol)
	}
	if d := rel(r.TimingL2Misses, r.Golden.L2Misses); d > tol {
		return fmt.Errorf("check: timing L2 misses %d vs functional %d: relative gap %.3f exceeds %.3f",
			r.TimingL2Misses, r.Golden.L2Misses, d, tol)
	}
	return nil
}
