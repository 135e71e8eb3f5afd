package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hbcache/internal/durable"
	"hbcache/internal/fault"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
)

// The sweep journal is the coordinator's write-ahead log: every sweep
// admission, shard dispatch, and terminal result is appended as one
// checksummed line before (or as) the event takes effect, so a
// coordinator SIGKILL loses no sweep state. On restart, Replay rebuilds
// the set of journaled sweeps; re-submitting them re-serves completed
// keys from the runner.Store (zero re-dispatch, zero re-simulation) and
// re-dispatches only the unfinished shards.
//
// Each record is a durable.Seal record (version + kind + SHA-256 over
// its exact bytes) on its own line, appended with a single O_APPEND
// write — the torn-write discipline of durable.WriteFile, adapted from
// rename-into-place to append-only. A torn or bit-rotted line fails
// durable.Open at replay; bad lines are quarantined to
// <journal>.corrupt (preserved for postmortem) and replay continues
// past them, so one bad record never takes down recovery of the sweeps
// around it.

// journalKind discriminates sweep-journal records from the other sealed
// records (machine snapshots, cache entries).
const journalKind = "hbcache-sweep-journal"

// journalFile is the journal's filename inside the journal directory.
const journalFile = "sweeps.journal"

// RecordType says what one journal record witnesses.
type RecordType string

const (
	// RecordSweep logs a sweep admission: ID plus member configs. It is
	// written before the submitter sees the sweep ID, so any sweep a
	// client can observe is recoverable.
	RecordSweep RecordType = "sweep"
	// RecordDispatch logs one point handed to one worker. Dispatch
	// records are forensic (which worker held a shard when the
	// coordinator died); replay does not need them to recover.
	RecordDispatch RecordType = "dispatch"
	// RecordResult logs a point reaching a terminal state. A successful
	// result marks its key complete for replay; a failed result is
	// forensic only — failed points re-dispatch on restore, because a
	// crash-interrupted attempt is indistinguishable from a real failure.
	RecordResult RecordType = "result"
)

// Record is one journal line's payload.
type Record struct {
	Type    RecordType   `json:"type"`
	SweepID string       `json:"sweep_id,omitempty"`
	Configs []sim.Config `json:"configs,omitempty"` // RecordSweep only
	Key     string       `json:"key,omitempty"`     // dispatch and result
	Worker  string       `json:"worker,omitempty"`  // RecordDispatch only
	Failed  bool         `json:"failed,omitempty"`  // RecordResult only
	Error   string       `json:"error,omitempty"`   // RecordResult only
}

// Journal is an append-only sweep log. Appends are serialized and
// synced, so the journal never lies about a sweep the client was told
// about. The zero value is unusable; a nil *Journal is valid everywhere
// and records nothing, mirroring the fault registry's convention.
type Journal struct {
	path   string
	faults *fault.Registry

	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (creating if needed) the sweep journal in dir and
// fsyncs dir, so a freshly created journal's directory entry is as
// durable as the records Append syncs into it.
func OpenJournal(dir string, faults *fault.Registry) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: journal dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening journal: %w", err)
	}
	if err := durable.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("cluster: syncing journal dir: %w", err)
	}
	return &Journal{path: f.Name(), faults: faults, f: f}, nil
}

// Path reports the journal file's location.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Append seals rec into a durable record and appends it as one
// line. The write is a single Write call followed by Sync, so a crash
// can tear at most the final line — which replay quarantines. A
// KindCorrupt fault rule at SiteClusterJournalWrite mangles the bytes
// after checksumming, producing a genuinely corrupt line.
func (j *Journal) Append(rec Record) error {
	if j == nil {
		return nil
	}
	if err := j.faults.Fire(context.Background(), fault.SiteClusterJournalWrite); err != nil {
		return err
	}
	b, err := durable.Seal(journalKind, rec)
	if err != nil {
		return err
	}
	j.faults.Mangle(fault.SiteClusterJournalWrite, b)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		j.f = f
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close releases the journal's file handle. Append after Close reopens
// it, so Close is safe at any point in a drain.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// JournaledSweep is one sweep reconstructed at replay: its original ID,
// member configs, and their canonical keys (derived, not stored).
type JournaledSweep struct {
	ID      string
	Configs []sim.Config
	Keys    []string
}

// Complete reports whether every key in the sweep has a journaled
// successful result. Incomplete sweeps are the ones a restarted
// coordinator must actively re-drive; complete ones re-serve instantly
// from the result store.
func (s JournaledSweep) Complete(done map[string]bool) bool {
	for _, k := range s.Keys {
		if !done[k] {
			return false
		}
	}
	return true
}

// ReplayState is everything a journal replay recovered.
type ReplayState struct {
	// Sweeps holds every journaled sweep in admission order.
	Sweeps []JournaledSweep
	// Done maps canonical keys with a journaled successful result.
	Done map[string]bool
	// Records counts good records replayed; Corrupt counts quarantined
	// lines.
	Records int
	Corrupt int
}

// Incomplete returns the journaled sweeps that still have unfinished
// keys, in admission order.
func (st *ReplayState) Incomplete() []JournaledSweep {
	var out []JournaledSweep
	for _, s := range st.Sweeps {
		if !s.Complete(st.Done) {
			out = append(out, s)
		}
	}
	return out
}

// Replay reads the journal in dir and rebuilds sweep state. A missing
// journal is an empty state, not an error — first boot and recovery
// share one code path. Corrupt or torn lines are appended verbatim to
// <journal>.corrupt and skipped; replay continues past them and counts
// them in ReplayState.Corrupt.
func Replay(dir string, faults *fault.Registry) (*ReplayState, error) {
	st := &ReplayState{Done: map[string]bool{}}
	if err := faults.Fire(context.Background(), fault.SiteClusterJournalRead); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: opening journal for replay: %w", err)
	}
	defer f.Close()

	var corrupt [][]byte
	sweepAt := map[string]int{} // sweep ID -> index in st.Sweeps
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		// Lines are not trimmed: a record's bytes are exactly what was
		// sealed, so stray whitespace is damage, not padding.
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := durable.Open(line, journalKind, &rec); err != nil {
			corrupt = append(corrupt, append([]byte(nil), line...))
			st.Corrupt++
			continue
		}
		st.Records++
		switch rec.Type {
		case RecordSweep:
			if _, dup := sweepAt[rec.SweepID]; dup || rec.SweepID == "" {
				continue
			}
			s := JournaledSweep{ID: rec.SweepID, Configs: rec.Configs}
			for _, cfg := range rec.Configs {
				key, err := runner.Key(cfg)
				if err != nil {
					// An unkeyable config cannot have results; treat it
					// as complete so it never blocks the sweep's peers.
					key = ""
				}
				s.Keys = append(s.Keys, key)
			}
			sweepAt[rec.SweepID] = len(st.Sweeps)
			st.Sweeps = append(st.Sweeps, s)
		case RecordResult:
			if rec.Key != "" && !rec.Failed {
				st.Done[rec.Key] = true
			}
		case RecordDispatch:
			// Forensic only.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: replaying journal: %w", err)
	}
	st.Done[""] = true // unkeyable placeholder counts as done
	if len(corrupt) > 0 {
		q, err := os.OpenFile(path+".corrupt", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			for _, line := range corrupt {
				q.Write(append(line, '\n'))
			}
			q.Close()
		}
	}
	return st, nil
}
