package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"

	"hbcache/internal/check"
	"hbcache/internal/cpu"
	"hbcache/internal/durable"
	"hbcache/internal/fault"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// SnapshotKind is the sealed-record kind of machine-state snapshots.
// Bump the suffix when MachineState changes incompatibly; older files
// then fail with durable.ErrCorrupt instead of deserializing into the
// wrong shape.
const SnapshotKind = "hbcache-sim-state-v1"

// snapshotsQuarantined counts snapshot files quarantined process-wide.
var snapshotsQuarantined atomic.Int64

// SnapshotsQuarantined reports how many snapshot files this process
// has quarantined to *.corrupt.
func SnapshotsQuarantined() int64 { return snapshotsQuarantined.Load() }

// MachineState is a complete simulation checkpoint: the config that
// produced it, the phase cursor, the measure-phase baselines, and the
// full mutable state of the core, the memory hierarchy, the workload
// generator, and (when hashing was on) the stream hasher. Resuming it
// reproduces the straight-through run bit-identically.
type MachineState struct {
	Config Config `json:"config"`

	// Phase and Remaining locate the run: Remaining instructions left in
	// Phase, never zero (a snapshot is taken mid-phase).
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

// WriteSnapshot seals st into a durable record and writes it to path
// with durable.WriteFile. A KindCorrupt fault rule at
// fault.SiteSnapshotWrite mangles the bytes after sealing, so the file
// lands on disk genuinely self-inconsistent — what a torn write
// produces.
func WriteSnapshot(path string, st *MachineState, faults *fault.Registry) error {
	if err := faults.Fire(context.Background(), fault.SiteSnapshotWrite); err != nil {
		return err
	}
	b, err := durable.Seal(SnapshotKind, st)
	if err != nil {
		return err
	}
	faults.Mangle(fault.SiteSnapshotWrite, b)
	return durable.WriteFile(path, append(b, '\n'))
}

// ReadSnapshot reads and verifies the snapshot at path. A missing file
// satisfies errors.Is(err, os.ErrNotExist). A file that fails
// verification is quarantined — renamed to path+".corrupt", counted in
// SnapshotsQuarantined — and the durable.ErrCorrupt error returned, so
// the caller falls back to a cold start exactly once while the bad
// bytes survive for triage.
func ReadSnapshot(path string, faults *fault.Registry) (*MachineState, error) {
	if err := faults.Fire(context.Background(), fault.SiteSnapshotRead); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st MachineState
	if err := durable.Open(b, SnapshotKind, &st); err != nil {
		durable.Quarantine(path, &snapshotsQuarantined)
		return nil, err
	}
	return &st, nil
}

// Restore builds a fresh simulation from the snapshot's embedded config
// and imports the recorded state into it, returning the assembled
// parts. This is the standalone form used by hbtrace to step a
// checkpoint cycle-by-cycle; it imports through the same
// machine.restore a resumed RunContext uses. The returned core has no
// budget or checker installed.
func (st *MachineState) Restore() (*cpu.CPU, *mem.System, workload.Source, error) {
	cfg := st.Config.WithDefaults()
	gen, sys, core, err := cfg.construct(nil, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	m := &machine{cfg: cfg, gen: gen, sys: sys, core: core}
	if err := m.restore(st); err != nil {
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
	return nil
}

// restore imports a snapshot into the machine. The snapshot must match
// the machine's resolved config exactly and stop inside a phase, with
// instructions left to run in it. On success the machine's phase
// cursor, baselines, and rebased cycle budget are in place; on error
// the machine is unusable and the caller discards it.
func (m *machine) restore(st *MachineState) error {
	mine, err := json.Marshal(m.cfg)
	if err != nil {
		return err
	}
	theirs, err := json.Marshal(st.Config.WithDefaults())
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
	if st.Remaining == 0 {
		return fmt.Errorf("snapshot cursor (%s, 0) has nothing left in its phase", st.Phase)
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
