package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hbcache/internal/check"
	"hbcache/internal/cpu"
	"hbcache/internal/fault"
	"hbcache/internal/mem"
	"hbcache/internal/snapshot"
	"hbcache/internal/workload"
)

// SnapshotKind discriminates machine-state snapshots inside the
// snapshot envelope. Bump the suffix when MachineState changes
// incompatibly; older files then fail with snapshot.ErrKind instead of
// deserializing into the wrong shape.
const SnapshotKind = "hbcache-sim-state-v1"

// MachineState is a complete simulation checkpoint: the config that
// produced it, the phase cursor, the measure-phase baselines, and the
// full mutable state of the core, the memory hierarchy, the workload
// generator, and (when hashing was on) the stream hasher. Resuming it
// reproduces the straight-through run bit-identically.
type MachineState struct {
	Config Config `json:"config"`

	// Phase and Remaining locate the run: Remaining instructions left in
	// Phase. The special pair ("warmup", 0) marks the end-of-prewarm
	// boundary — the resumer runs its own full warmup, so any config
	// sharing PrewarmProjection can resume it.
	Phase     string `json:"phase"`
	Remaining uint64 `json:"remaining"`

	// Measure-phase baselines (hierarchy counters at ResetStats time);
	// meaningful only once Phase is "measure".
	PreLoads     uint64 `json:"pre_loads"`
	PreLoadMiss  uint64 `json:"pre_load_miss"`
	PreStoreMiss uint64 `json:"pre_store_miss"`
	PreLB        uint64 `json:"pre_lb"`

	CPU cpu.State               `json:"cpu"`
	Mem mem.SystemState         `json:"mem"`
	Gen workload.GeneratorState `json:"gen"`

	// Stream is present when the producing run hashed its retired
	// stream (RunOpts.Hash). A resume without it starts a fresh hash.
	Stream *check.StreamState `json:"stream,omitempty"`
}

// PrewarmProjection reduces a config to the part that determines
// machine state at the end-of-prewarm boundary: the benchmark, the
// seed, the machine geometry, and the prewarm window itself. Configs
// that agree on it can share one prewarm snapshot (and one
// content-addressed prewarm cache entry) no matter how their measure
// windows or sampling plans differ.
func PrewarmProjection(cfg Config) Config {
	cfg = cfg.WithDefaults()
	cfg.WarmupInsts = 0
	cfg.MeasureInsts = 0
	cfg.Sample = nil
	return cfg
}

// WriteSnapshot seals st into a checksummed snapshot file at path
// (atomically: temp file + rename).
func WriteSnapshot(path string, st *MachineState, faults *fault.Registry) error {
	return snapshot.Save(path, SnapshotKind, st, faults)
}

// ReadSnapshot loads and verifies the snapshot at path. Unusable files
// (corrupt, wrong version, wrong kind) are quarantined to *.corrupt by
// the snapshot layer; a missing file satisfies
// errors.Is(err, os.ErrNotExist).
func ReadSnapshot(path string, faults *fault.Registry) (*MachineState, error) {
	var st MachineState
	if err := snapshot.Load(path, SnapshotKind, &st, faults); err != nil {
		return nil, err
	}
	return &st, nil
}

// Restore builds a fresh simulation from the snapshot's embedded config
// and imports the recorded state into it, returning the assembled
// parts. This is the standalone form used by hbtrace to step a
// checkpoint cycle-by-cycle; RunContext resumes through the machine
// instead. The returned core has no budget or checker installed.
func (st *MachineState) Restore() (*cpu.CPU, *mem.System, workload.Source, error) {
	cfg := st.Config.WithDefaults()
	gen, err := cfg.newSource()
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := mem.NewSystem(cfg.Memory)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	core, err := cpu.New(cfg.CPU, gen, sys.L1)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if err := gen.ImportState(st.Gen); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if err := sys.ImportState(st.Mem); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if err := core.ImportState(st.CPU); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	return core, sys, gen, nil
}

// resume restores a fresh machine from the snapshot at path.
func (m *machine) resume(path string) error {
	st, err := ReadSnapshot(path, m.opts.Faults)
	if err == nil {
		err = m.restore(st)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	m.resumed = true
	return nil
}

// canonicalJSON is the config-identity encoding used to decide whether
// a snapshot belongs to this run's config.
func canonicalJSON(cfg Config) ([]byte, error) {
	return json.Marshal(cfg)
}

// restore imports a snapshot into the machine. The snapshot must match
// the machine's resolved config exactly — except a prewarm-boundary
// snapshot, which only has to agree on PrewarmProjection, since warmup
// and measure haven't touched state yet at that point. On success the
// machine's phase cursor, baselines, and rebased cycle budget are in
// place; on error the machine is unusable and the caller discards it.
func (m *machine) restore(st *MachineState) error {
	var mine, theirs []byte
	var err error
	if st.Phase == phaseWarmup && st.Remaining == 0 {
		mine, err = canonicalJSON(PrewarmProjection(m.cfg))
		if err == nil {
			theirs, err = canonicalJSON(PrewarmProjection(st.Config))
		}
	} else {
		mine, err = canonicalJSON(m.cfg)
		if err == nil {
			theirs, err = canonicalJSON(st.Config.WithDefaults())
		}
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(mine, theirs) {
		return fmt.Errorf("snapshot recorded for a different config (benchmark %q)", st.Config.Benchmark)
	}
	switch st.Phase {
	case phasePrewarm, phaseWarmup, phaseMeasure:
	default:
		return fmt.Errorf("snapshot phase %q unknown", st.Phase)
	}
	if err := m.gen.ImportState(st.Gen); err != nil {
		return err
	}
	if err := m.sys.ImportState(st.Mem); err != nil {
		return err
	}
	if err := m.core.ImportState(st.CPU); err != nil {
		return err
	}
	if m.stream != nil && st.Stream != nil {
		m.stream.Restore(*st.Stream)
	}
	m.phase = st.Phase
	m.remaining = st.Remaining
	if m.remaining == 0 {
		// A phase-start cursor — (warmup, 0) is the prewarm boundary —
		// runs the whole phase.
		switch m.phase {
		case phaseWarmup:
			m.remaining = m.cfg.WarmupInsts
		case phaseMeasure:
			m.remaining = m.cfg.MeasureInsts
		}
	}
	m.preLoads = st.PreLoads
	m.preLoadMiss = st.PreLoadMiss
	m.preStoreMiss = st.PreStoreMiss
	m.preLB = st.PreLB
	// Rebase the cycle cap past the snapshot's clock: every attempt gets
	// the same allowance of forward progress, so a chain of
	// budget-truncated resumes always terminates.
	if m.opts.MaxCycles > 0 {
		m.effMax = st.CPU.Now + m.opts.MaxCycles
	}
	return nil
}

// exportState captures the machine at the given phase cursor.
func (m *machine) exportState(phase string, remaining uint64) *MachineState {
	st := &MachineState{
		Config:       m.cfg,
		Phase:        phase,
		Remaining:    remaining,
		PreLoads:     m.preLoads,
		PreLoadMiss:  m.preLoadMiss,
		PreStoreMiss: m.preStoreMiss,
		PreLB:        m.preLB,
		CPU:          m.core.ExportState(),
		Mem:          m.sys.ExportState(),
		Gen:          m.gen.ExportState(),
	}
	if m.stream != nil {
		s := m.stream.State()
		st.Stream = &s
	}
	return st
}

func (m *machine) saveSnapshot(path, phase string, remaining uint64) error {
	return WriteSnapshot(path, m.exportState(phase, remaining), m.opts.Faults)
}
