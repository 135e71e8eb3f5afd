// Package sim assembles complete simulations: a synthetic benchmark
// feeding the dynamic superscalar core attached to a configured memory
// hierarchy. It also provides the cycle-time scaling used by the
// execution-time study (Figure 9), where the secondary cache and main
// memory have fixed physical latencies (50 ns, 300 ns) that translate
// into more processor cycles as the processor gets faster.
//
// Runs are resumable: the timed phases execute in fixed instruction
// chunks whose boundaries are bit-identical to an uninterrupted run, so
// a checkpoint written at any chunk boundary (RunOpts.SnapshotPath /
// SnapshotOnAbort) and resumed later (RunOpts.Resume) produces exactly
// the stats a straight-through run would have. Config.Sample trades
// that exactness for throughput: only sampled windows of the measure
// phase are timed and the rest is fast-forwarded functionally.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hbcache/internal/check"
	"hbcache/internal/cpu"
	"hbcache/internal/fault"
	"hbcache/internal/fo4"
	"hbcache/internal/isa"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// Sentinel errors, used by the runner's retry classification: none of
// these get better by re-running the same deterministic simulation.
var (
	// ErrAborted means the run was stopped by its context — a caller
	// cancellation, a job timeout, or a client disconnect.
	ErrAborted = errors.New("sim: aborted")
	// ErrBudget means the run exhausted its own cycle or wall budget
	// (RunOpts.MaxCycles / RunOpts.Timeout).
	ErrBudget = errors.New("sim: budget exhausted")
	// ErrInvalidConfig wraps configuration errors: the config can never
	// simulate, no matter how often it is retried.
	ErrInvalidConfig = errors.New("sim: invalid config")
	// ErrCheckFailed means the run was executed with RunOpts.Check and
	// the cycle-level invariant checker found a machine-state violation.
	// The simulation's results are meaningless and the bug is
	// deterministic — this is a simulator defect, not a transient.
	ErrCheckFailed = errors.New("sim: invariant check failed")
	// ErrSnapshot means RunOpts.Resume named a snapshot that could not
	// be used: missing, corrupt (it was quarantined), from an
	// incompatible format, recorded for a different configuration, or
	// with a cursor that has nothing left in its phase.
	// The caller falls back to a cold start; the run itself was fine.
	ErrSnapshot = errors.New("sim: unusable snapshot")
)

// Config is one simulation run. The JSON field names are the stable
// wire format of the service API and the runner's disk cache; renaming
// one is a compatibility break and requires a runner cache-key version
// bump.
type Config struct {
	Benchmark string `json:"benchmark"`
	Seed      uint64 `json:"seed"`

	CPU    cpu.Config       `json:"cpu"`
	Memory mem.SystemConfig `json:"memory"`

	// PrewarmInsts instructions are streamed through the cache tag
	// arrays (no timing) before simulation so the measured window sees
	// steady-state miss rates, standing in for the paper's >100M
	// instruction runs. WarmupInsts then retire on the timing model
	// before counters reset, and MeasureInsts are measured.
	PrewarmInsts uint64 `json:"prewarm_insts"`
	WarmupInsts  uint64 `json:"warmup_insts"`
	MeasureInsts uint64 `json:"measure_insts"`

	// PrewarmMode selects how PrewarmInsts are consumed; empty means
	// PrewarmFastForward (see WithDefaults).
	PrewarmMode PrewarmMode `json:"prewarm_mode,omitempty"`

	// Sample, when set, replaces the exhaustive measure phase with
	// SimPoint-style interval sampling: only WindowInsts out of every
	// IntervalInsts are timed (after WarmupInsts of timed re-warm) and
	// whole-run IPC and miss rates are estimated by weighted
	// recombination, with the error bound in Result.Sampled. nil (the
	// default) keeps the canonical encoding — and therefore the
	// runner's cache keys — unchanged.
	Sample *SampleSpec `json:"sample,omitempty"`

	// Trace, when set, replays a recorded instruction trace instead of
	// synthesizing the benchmark: Benchmark and Seed become labels (the
	// trace carries its own provenance) and the stream, regions, and
	// prewarm content all come from the recording. nil (the default)
	// keeps the canonical encoding unchanged. See TraceRef.
	Trace *TraceRef `json:"trace,omitempty"`
}

// PrewarmMode selects how the PrewarmInsts window is fast-forwarded
// before the timing model starts.
type PrewarmMode string

const (
	// PrewarmFastForward drains the generator functionally, warming the
	// cache hierarchy with every memory reference and training the branch
	// predictor with every branch outcome, but running no pipeline
	// timing. This is the default: the measured window starts with both
	// steady-state caches and a trained predictor at a small fraction of
	// the cost of timed prewarm.
	PrewarmFastForward PrewarmMode = "fast-forward"
	// PrewarmTiming runs the full timing model through the prewarm
	// window. Highest fidelity and by far the slowest; the reference the
	// fast-forward tolerance is tested against.
	PrewarmTiming PrewarmMode = "timing"
)

func (m PrewarmMode) valid() bool {
	switch m {
	case "", PrewarmFastForward, PrewarmTiming:
		return true
	}
	return false
}

// DefaultWarmup and DefaultMeasure size the measurement window. The
// paper ran >100M instructions per benchmark on MXS; these defaults keep
// full design-space sweeps tractable while leaving miss rates and IPC
// stable to well under the effects being measured. Raise them via
// Config for higher-fidelity runs.
const (
	DefaultPrewarm = 800_000
	DefaultWarmup  = 30_000
	DefaultMeasure = 300_000
)

// Result carries the measurements of one run. Like Config, the JSON
// field names are a stable wire format.
type Result struct {
	Benchmark    string  `json:"benchmark"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`

	// MissesPerInst counts primary-cache load and store misses per
	// retired instruction (Figure 3's metric).
	MissesPerInst float64 `json:"misses_per_inst"`
	// LineBufferHitRate is line-buffer hits per load, 0 without one.
	LineBufferHitRate float64 `json:"line_buffer_hit_rate"`
	// BranchAccuracy is the predictor's correct fraction.
	BranchAccuracy float64 `json:"branch_accuracy"`
	// MeanLoadLatency is the average load issue-to-data latency.
	MeanLoadLatency float64 `json:"mean_load_latency"`

	CPUStats cpu.Stats `json:"cpu_stats"`

	// StreamHash is the FNV-1a hash over the measured window's retired
	// instruction stream, present when the run was executed with
	// RunOpts.Hash. Two runs that report the same hash retired the
	// identical stream — the bit-identity witness of the resume tests.
	StreamHash uint64 `json:"stream_hash,omitempty"`

	// Sampled describes the sampling run that produced the estimates
	// above; nil for exhaustive runs. In sampled mode Cycles and IPC
	// are whole-run estimates while CPUStats covers only the timed
	// cycles.
	Sampled *SampleSummary `json:"sampled,omitempty"`
}

// WithDefaults returns c with zero instruction windows replaced by the
// package defaults, exactly as Run would interpret them. Boundaries
// (CLI flags, the service API) resolve a config with WithDefaults
// before validating or content-addressing it.
func (c Config) WithDefaults() Config {
	if c.PrewarmInsts == 0 {
		c.PrewarmInsts = DefaultPrewarm
	}
	if c.WarmupInsts == 0 {
		c.WarmupInsts = DefaultWarmup
	}
	if c.MeasureInsts == 0 {
		c.MeasureInsts = DefaultMeasure
	}
	if c.PrewarmMode == "" {
		c.PrewarmMode = PrewarmFastForward
	}
	return c
}

// Validate reports whether a resolved config can simulate, with the
// descriptive error a client can act on: unknown benchmark names list
// the known ones, zero-size or misshapen caches name the offending
// dimension, and zero instruction windows are rejected (apply
// WithDefaults first if zero should mean "default"). It dry-runs the
// workload, memory-system, and CPU constructors, so it agrees exactly
// with Run instead of failing deep inside the simulator after the
// multi-hundred-thousand-instruction prewarm.
func (c Config) Validate() error {
	if c.PrewarmInsts == 0 || c.WarmupInsts == 0 || c.MeasureInsts == 0 {
		return fmt.Errorf("%w: instruction windows must be positive, got prewarm=%d warmup=%d measure=%d (zero means \"use default\" only via WithDefaults)",
			ErrInvalidConfig, c.PrewarmInsts, c.WarmupInsts, c.MeasureInsts)
	}
	if !c.PrewarmMode.valid() {
		return fmt.Errorf("%w: unknown prewarm mode %q (want %q or %q)",
			ErrInvalidConfig, c.PrewarmMode, PrewarmFastForward, PrewarmTiming)
	}
	if err := c.Sample.validate(c.MeasureInsts); err != nil {
		return err
	}
	_, _, _, err := c.construct(nil, nil)
	return err
}

// construct builds the machine a config runs on, in order: its stream
// source, its memory hierarchy, then its core. A nil src is built with
// newSource; a batch lane of a shared trace passes a reader over the
// stream's one opened recording instead. With rd nil the core reads
// the source; a batch lane on a shared stream passes its ring cursor.
// Hierarchy and core errors wrap ErrInvalidConfig, as source errors
// already do. NewBatch, Validate and MachineState.Restore all build
// through here.
func (c Config) construct(src workload.Source, rd isa.Reader) (_ workload.Source, sys *mem.System, core *cpu.CPU, err error) {
	if src == nil {
		if src, err = c.newSource(); err != nil {
			return nil, nil, nil, err
		}
	}
	if rd == nil {
		rd = src
	}
	if sys, err = mem.NewSystem(c.Memory); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if core, err = cpu.New(c.CPU, rd, sys.L1); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return src, sys, core, nil
}

// RunOpts bound one simulation run. The zero value means "no limits,
// no faults, no snapshots" and reproduces Run's behavior exactly.
type RunOpts struct {
	// MaxCycles caps simulated cycles (timed prewarm, warmup, and
	// measurement together, on the core's monotonic clock). Exceeding
	// it fails the run with ErrBudget. Zero means uncapped. A resumed
	// run gets a fresh allowance of MaxCycles beyond the snapshot's
	// clock, so every attempt makes the same bounded progress.
	MaxCycles uint64
	// Timeout caps the run's wall time; exceeding it fails the run with
	// ErrBudget. Zero means uncapped.
	Timeout time.Duration
	// Faults, when non-nil, is consulted at fault.SiteSimRun before the
	// simulation starts and at the snapshot read/write sites — chaos
	// tests and failure rehearsal inject panics, hangs, delays, errors,
	// and snapshot corruption there.
	Faults *fault.Registry
	// Check installs the cycle-level invariant checker on the core for
	// the whole run (timed prewarm, warmup, and measurement). A
	// violation stops the run immediately and fails it with
	// ErrCheckFailed. Off by default: checking costs roughly an order
	// of magnitude in simulation speed and the hot loop stays
	// allocation-free only without it.
	Check bool
	// Hash installs the FNV stream hasher on the core and reports the
	// retired stream's hash in Result.StreamHash. Cheap (two words of
	// state, no allocation), but off by default to keep the default
	// hot loop checker-free.
	Hash bool

	// The snapshot options below are one run's state: RunContext and
	// a batch of one honor them, larger batches reject them.
	//
	// Resume restores machine state from the snapshot at this path and
	// continues the run from there instead of starting cold. The
	// snapshot must have been recorded for the identical resolved
	// config. An unusable snapshot fails with ErrSnapshot (corrupt
	// files are quarantined to *.corrupt).
	Resume string
	// SnapshotPath, with SnapshotAt, writes one checkpoint mid-run: at
	// the first chunk boundary at or after cycle SnapshotAt (on the
	// core's monotonic clock), except phase-final boundaries. Resuming
	// it reproduces the straight-through run bit-identically.
	SnapshotPath string
	SnapshotAt   uint64
	// SnapshotOnAbort writes a checkpoint when the run stops on a
	// budget or cancellation during a timed phase, so the next attempt
	// resumes instead of restarting. Never written on ErrCheckFailed (a
	// broken machine must not be resumed) or in sampled mode.
	SnapshotOnAbort string

	// Prewarm, when non-nil, shares the functional prewarm of a fresh
	// run with other runs of the same stream, synthetic or recorded,
	// through the cache (see PrewarmCache): the prefix, and the
	// finished warm state of runs that also share a cache geometry.
	// Every lane of a batch prewarms through it, ring lanes included;
	// a batch of two or more lanes without one makes its own. Results
	// are bit-identical either way; nil sweeps and drains cold, the
	// reference path.
	Prewarm *PrewarmCache
}

// Run executes one simulation with no cancellation, budget, or fault
// injection — the convenience form of RunContext.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg, RunOpts{})
}

// RunContext executes one simulation under ctx: a batch of one, which
// reads its stream straight from its source and is the only form that
// honors the snapshot options. Cancellation is cooperative: the core
// polls an abort flag every ~1k cycles and the prewarm loops check it
// per chunk, so a cancelled or timed-out run releases its CPU within
// microseconds instead of completing — the property that makes the
// service's JobTimeout and client disconnects real. A run stopped by
// ctx fails with ErrAborted; one stopped by its own RunOpts budget
// fails with ErrBudget.
func RunContext(ctx context.Context, cfg Config, opts RunOpts) (Result, error) {
	b, err := NewBatch(ctx, []Config{cfg}, opts)
	if err != nil {
		return Result{}, err
	}
	defer b.Close()
	for b.Step() {
	}
	return b.lanes[0].res, b.lanes[0].err
}

// Phase names recorded in snapshots. A machine whose phase is still
// empty has not been prewarmed.
const (
	phasePrewarm = "prewarm"
	phaseWarmup  = "warmup"
	phaseMeasure = "measure"
)

// runChunk is the timed-phase chunk size in instructions. Run's budget
// polls only read state, so running a phase as Run(k) chunks is
// bit-identical to one straight Run call — the property snapshots and
// resume are built on. 4096 keeps the per-chunk overhead (a few loads
// and compares) invisible next to the ~4k simulated cycles per chunk.
const runChunk = 4096

// machine is one assembled simulation mid-flight: the stream source,
// the hierarchy, the core, the optional checkers, and the phase cursor
// the snapshot subsystem persists.
type machine struct {
	cfg  Config // resolved (WithDefaults applied)
	opts RunOpts
	ctx  context.Context // caller context, for abort classification

	// gen is the machine's own source, which its prewarm drains. On a
	// lane reading a shared ring it is, after the prewarm, the
	// stream's master source, which runs ahead of the core
	// (bstream.start).
	gen workload.Source
	// tape is the core's reader on a lone lane that can read a stream
	// tape (see tapeEligible); nil when the core reads gen or a ring.
	tape   *tapeReader
	sys    *mem.System
	core   *cpu.CPU
	stream *check.Stream
	inv    *check.Invariants
	stop   *atomic.Bool
	// done closes with the batch's context (cancellation or wall
	// budget), releasing a wait on another run's prewarm-cache fill.
	done <-chan struct{}

	// effMax is the absolute cycle cap on the core's monotonic clock:
	// opts.MaxCycles for a fresh run, rebased past the snapshot's clock
	// on resume.
	effMax uint64

	phase     string
	remaining uint64    // instructions left in the current phase
	smp       *sampler  // the measure phase's interval schedule; nil when exhaustive
	buf       *drainBuf // fastForward's scratch, allocated on first use

	// Measure-phase baselines, captured at ResetStats time.
	preLoads, preLoadMiss, preStoreMiss, preLB uint64

	snapSaved bool
}

// assembleMachine wires an already-constructed stream source,
// hierarchy, and core into a machine with the configured checkers
// installed.
func assembleMachine(ctx context.Context, cfg Config, opts RunOpts, stop *atomic.Bool, gen workload.Source, sys *mem.System, core *cpu.CPU) *machine {
	m := &machine{cfg: cfg, opts: opts, ctx: ctx, gen: gen, sys: sys, core: core, stop: stop, effMax: opts.MaxCycles}
	if cfg.Sample != nil {
		m.smp = newSampler(*cfg.Sample, cfg.MeasureInsts)
	}
	var checkers []cpu.Checker
	if opts.Hash {
		m.stream = check.NewStream()
		checkers = append(checkers, m.stream)
	}
	if opts.Check {
		// The invariant checker shares the stop flag, so a violation
		// halts the core within one budget-poll interval just like a
		// cancellation.
		m.inv = check.NewInvariants(core, sys, stop)
		checkers = append(checkers, m.inv)
	}
	if len(checkers) > 0 {
		core.SetChecker(check.Multi(checkers...))
	}
	return m
}

// abortErr names what stopped the run, in classification order: an
// invariant violation (the run's results are meaningless), then the
// hard cycle cap, then the caller's context, then the wall budget.
func (m *machine) abortErr() error {
	if m.inv != nil && m.inv.Err() != nil {
		return fmt.Errorf("%w: %v", ErrCheckFailed, m.inv.Err())
	}
	if m.effMax > 0 && uint64(m.core.Now()) >= m.effMax {
		return fmt.Errorf("%w: cycle budget of %d exhausted", ErrBudget, m.opts.MaxCycles)
	}
	if err := m.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrAborted, err)
	}
	return fmt.Errorf("%w: wall budget of %v exhausted", ErrBudget, m.opts.Timeout)
}

// checkErr converts a latched invariant violation into the run's
// failure. The stop flag usually aborts the core first, but a
// violation raised in the final budget-poll interval can let Run
// finish normally — this catches that case.
func (m *machine) checkErr() error {
	if m.inv != nil && m.inv.Err() != nil {
		return fmt.Errorf("%w: %v", ErrCheckFailed, m.inv.Err())
	}
	return nil
}

// abort classifies the stop and, for resumable stops (budget or
// cancellation, never a check failure) persists the machine for the
// next attempt when SnapshotOnAbort asks for one. Sampled runs are
// estimates over a discontinuous stream and are not resumable.
func (m *machine) abort() error {
	err := m.abortErr()
	if m.opts.SnapshotOnAbort != "" && m.smp == nil && !errors.Is(err, ErrCheckFailed) {
		// A failed save costs only the resumability of this attempt;
		// the abort itself is the caller's signal either way.
		_ = m.saveSnapshot(m.opts.SnapshotOnAbort, m.phase, m.remaining)
	}
	return err
}

// runTimedChunk advances the current phase by at most one runChunk,
// reporting whether the phase is finished. Stepping a phase chunk by
// chunk is bit-identical to running it straight through.
func (m *machine) runTimedChunk() (bool, error) {
	if m.remaining == 0 || m.core.Done() {
		return true, nil
	}
	chunk := uint64(runChunk)
	if chunk > m.remaining {
		chunk = m.remaining
	}
	before := m.core.Stats().Retired
	m.core.Run(chunk)
	retired := m.core.Stats().Retired - before
	if retired >= m.remaining {
		m.remaining = 0
	} else {
		m.remaining -= retired
	}
	if m.core.Stopped() {
		return false, m.abort()
	}
	if err := m.checkErr(); err != nil {
		return false, err
	}
	// Phase-final boundaries (remaining == 0) are excluded: restore
	// refuses a cursor with nothing left in its phase.
	if m.remaining > 0 && m.wantSnapshotAt() {
		if err := m.saveSnapshot(m.opts.SnapshotPath, m.phase, m.remaining); err != nil {
			return false, err
		}
		m.snapSaved = true
	}
	return m.remaining == 0 || m.core.Done(), nil
}

func (m *machine) wantSnapshotAt() bool {
	return m.opts.SnapshotPath != "" && m.opts.SnapshotAt > 0 && !m.snapSaved &&
		m.smp == nil && uint64(m.core.Now()) >= m.opts.SnapshotAt
}

// step is the simulation's only phase driver: it advances the machine
// by at most one runChunk of timed work and makes the phase
// transitions — timed prewarm to warmup, warmup to measure, and the
// sampled measure phase's interval schedule. It reports whether the
// run has finished; Result then holds its measurements.
func (m *machine) step() (bool, error) {
	done, err := m.runTimedChunk()
	if err != nil || !done {
		return false, err
	}
	switch m.phase {
	case phasePrewarm:
		m.phase, m.remaining = phaseWarmup, m.cfg.WarmupInsts
		return false, nil
	case phaseWarmup:
		m.captureBaselines()
		m.core.ResetStats()
		m.phase, m.remaining = phaseMeasure, m.cfg.MeasureInsts
		if m.smp != nil {
			return m.nextInterval()
		}
		return false, nil
	}
	if m.smp != nil {
		return m.sampleStep()
	}
	return true, nil
}

// sweep brings every workload region through the tag arrays so anything
// that fits some level is resident, as it would be in a long run: the
// state of a warm touch on every 32 bytes of each region. The machine's
// hierarchy is freshly built and generated regions lie far apart, so
// mem.System.Sweep computes that state directly; a region list that
// shares a line between regions is touched one 32-byte step at a time.
func (m *machine) sweep() error {
	regions := m.gen.Regions()
	ranges := make([]mem.Range, len(regions))
	for i, r := range regions {
		ranges[i] = mem.Range{Base: r.Base, Bytes: r.Bytes}
	}
	if !m.sys.Sweep(ranges, m.stop.Load) {
		return m.abortErr()
	}
	return nil
}

// prewarm brings a fresh machine that reads its own source to steady
// state, standing in for the paper's >100M-instruction runs: the
// region sweep, then the prewarm window. A functional prewarm goes
// through RunOpts.Prewarm when one is set,
// which may replace both steps with another run's finished warm state
// (see PrewarmCache); otherwise the machine sweeps and drains the
// window itself. A timed prewarm sweeps here and leaves the window to
// step. Either way the same, already-advanced source then feeds the
// core: the measured window must not re-walk stream prefixes the
// timing model never fetched.
func (m *machine) prewarm() error {
	if m.cfg.PrewarmMode == PrewarmTiming {
		if err := m.sweep(); err != nil {
			return err
		}
		m.phase, m.remaining = phasePrewarm, m.cfg.PrewarmInsts
		return nil
	}
	var err error
	if m.opts.Prewarm != nil {
		err = m.opts.Prewarm.warm(m)
	} else if err = m.sweep(); err == nil {
		err = m.fastForward(m.cfg.PrewarmInsts, nil)
	}
	if err != nil {
		return err
	}
	m.phase, m.remaining = phaseWarmup, m.cfg.WarmupInsts
	return nil
}

// fastForward drains insts instructions of the machine's own source
// into its hierarchy and predictor, handing each chunk's references to
// rec when it is set.
func (m *machine) fastForward(insts uint64, rec *prefixRecorder) error {
	if m.buf == nil {
		m.buf = new(drainBuf)
	}
	if !drain(m.gen, insts, m.sys, m.core.Predictor(), m.stop, rec, m.buf) {
		return m.abortErr()
	}
	return nil
}

// warmChunk is the functional drain's chunk in instructions.
const warmChunk = 4096

// drainBuf is drain's scratch: one chunk of memory references and
// branch outcomes. A machine keeps its own, so a sampled run's
// per-interval fast-forwards reuse it instead of allocating.
type drainBuf struct {
	addrs, branches [warmChunk]uint64
}

// drain consumes insts instructions of gen functionally, in warmChunk
// pieces, without running any pipeline: every memory reference warms
// sys, every branch outcome trains pred, and rec, when set, records
// both. Chunked so the generator's batch loop stays call-free. It
// reports false, having stopped early, once stop is set.
func drain(gen workload.Source, insts uint64, sys *mem.System, pred *cpu.Predictor, stop *atomic.Bool, rec *prefixRecorder, buf *drainBuf) bool {
	addrs, branches := buf.addrs[:], buf.branches[:]
	for left := insts; left > 0; {
		if stop.Load() {
			return false
		}
		chunk := len(addrs)
		if uint64(chunk) > left {
			chunk = int(left)
		}
		left -= uint64(chunk)
		na, nb := gen.Warm(chunk, addrs, branches)
		for _, a := range addrs[:na] {
			sys.WarmTouch(a)
		}
		for _, b := range branches[:nb] {
			pred.Warm(b>>1, b&1 == 1)
		}
		if rec != nil {
			rec.add(addrs[:na], branches[:nb])
		}
	}
	return true
}

// captureBaselines records the hierarchy counters at the start of the
// measured window, so the Result reports window deltas.
func (m *machine) captureBaselines() {
	m.preLoads = m.sys.L1.Loads()
	m.preLoadMiss = m.sys.L1.LoadMisses()
	m.preStoreMiss = m.sys.L1.StoreMisses()
	m.preLB = 0
	if lb := m.sys.L1.LineBuffer(); lb != nil {
		m.preLB = lb.Hits()
	}
}

// result assembles a finished run's Result: the measured window's
// cumulative stats since ResetStats against the baselines, or the
// sampled estimates.
func (m *machine) result() Result {
	if m.smp != nil {
		return m.sampledResult()
	}
	s := m.core.Stats()
	res := Result{
		Benchmark:       m.cfg.Benchmark,
		Cycles:          s.Cycles,
		Instructions:    s.Retired,
		IPC:             s.IPC(),
		BranchAccuracy:  m.core.Predictor().Accuracy(),
		MeanLoadLatency: s.MeanLoadLatency(),
		CPUStats:        s,
	}
	if s.Retired > 0 {
		misses := (m.sys.L1.LoadMisses() - m.preLoadMiss) + (m.sys.L1.StoreMisses() - m.preStoreMiss)
		res.MissesPerInst = float64(misses) / float64(s.Retired)
	}
	if lb := m.sys.L1.LineBuffer(); lb != nil {
		loads := m.sys.L1.Loads() - m.preLoads
		if loads > 0 {
			res.LineBufferHitRate = float64(lb.Hits()-m.preLB) / float64(loads)
		}
	}
	if m.stream != nil {
		res.StreamHash = m.stream.Hash()
	}
	return res
}

// ScaledSRAMSystem builds the SRAM memory system for a processor with
// the given cycle time in FO4: the L2's 50 ns and memory's 300 ns are
// converted to cycles, and the buses' bytes-per-cycle shrink as the
// cycle shortens. This is the configuration Figure 9 sweeps.
func ScaledSRAMSystem(l1Bytes, l1HitCycles int, ports mem.PortConfig, lineBuffer bool, cycleFO4 float64) mem.SystemConfig {
	cfg := mem.DefaultSRAMSystem(l1Bytes, l1HitCycles, ports, lineBuffer)
	cfg.CycleNs = fo4.CycleNs(cycleFO4)
	l2 := mem.DefaultL2Config(fo4.CyclesForNs(50, cycleFO4))
	cfg.L2 = &l2
	cfg.MemoryLatencyCycles = fo4.CyclesForNs(300, cycleFO4)
	return cfg
}

// ExecutionTimeNs converts a run at a given cycle time into nanoseconds
// per instruction, the paper's execution-time metric (modulo benchmark
// instruction count, which cancels under normalization).
func ExecutionTimeNs(r Result, cycleFO4 float64) float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) * fo4.CycleNs(cycleFO4) / float64(r.Instructions)
}

// MissRates measures misses per instruction for single-ported baseline
// caches of each of the given sizes without the processor model: one
// pass of the generator's memory references streams through a two-way
// 32-byte-line tag array per size (Figure 3's configuration), so a
// whole miss-rate curve costs one stream generation, not one per size.
// The arrays are independent, so each rate equals what a pass with
// that size alone would measure. Returns misses per instruction,
// indexed like sizes.
func MissRates(benchmark string, seed uint64, sizes []int, insts uint64) ([]float64, error) {
	gen, err := workload.New(benchmark, seed)
	if err != nil {
		return nil, err
	}
	arrays := make([]*mem.Array, len(sizes))
	for i, size := range sizes {
		if arrays[i], err = mem.NewArray(size, 32, 2); err != nil {
			return nil, err
		}
	}
	if insts == 0 {
		insts = DefaultMeasure
	}
	// Warm until even rarely-revisited cool data has been touched:
	// Figure 3 is a steady-state metric and the paper ran >100M
	// instructions per point, so first-touch misses must not be
	// charged to the measurement window.
	warm := insts
	if warm < 2_000_000 {
		warm = 2_000_000
	}
	misses := make([]uint64, len(sizes))
	var addrs, branches [4096]uint64
	probe := func(n uint64) {
		for n > 0 {
			chunk := uint64(len(addrs))
			if chunk > n {
				chunk = n
			}
			n -= chunk
			na, _ := gen.Warm(int(chunk), addrs[:], branches[:])
			for i, array := range arrays {
				for _, a := range addrs[:na] {
					if !array.Lookup(a) {
						array.Fill(a)
						misses[i]++
					}
				}
			}
		}
	}
	probe(warm)
	clear(misses)
	probe(insts)
	rates := make([]float64, len(sizes))
	for i, n := range misses {
		rates[i] = float64(n) / float64(insts)
	}
	return rates, nil
}
