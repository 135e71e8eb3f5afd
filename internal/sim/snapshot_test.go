package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hbcache/internal/durable"
	"hbcache/internal/fault"
)

// fileState is a small machine state for the file-level tests: they
// pin sealing, durability and quarantine, not what a snapshot holds.
func fileState() *MachineState {
	return &MachineState{Config: Config{Benchmark: "li", Seed: 7}, Phase: phaseMeasure, Remaining: 42}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "snap.json")
	in := fileState()
	if err := WriteSnapshot(path, in, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSnapshot(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mangled the state: %+v", out)
	}
}

func TestReadSnapshotMissingFile(t *testing.T) {
	_, err := ReadSnapshot(filepath.Join(t.TempDir(), "absent.json"), nil)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err=%v, want os.ErrNotExist", err)
	}
}

func TestReadSnapshotQuarantinesCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, []byte("{not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := SnapshotsQuarantined()
	if _, err := ReadSnapshot(path, nil); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("corrupt file: err=%v, want durable.ErrCorrupt", err)
	}
	if SnapshotsQuarantined() != before+1 {
		t.Fatalf("quarantine counter %d, want %d", SnapshotsQuarantined(), before+1)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt file left in place")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// Every later read of the same path must miss cleanly, not retry
	// the bad bytes.
	if _, err := ReadSnapshot(path, nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("second read: err=%v, want os.ErrNotExist", err)
	}
}

// TestSnapshotFireContext pins that a nil fault registry is a total
// no-op on both snapshot sites, which WriteSnapshot and ReadSnapshot
// rely on when called without faults.
func TestSnapshotFireContext(t *testing.T) {
	for _, site := range []string{fault.SiteSnapshotRead, fault.SiteSnapshotWrite} {
		if err := (*fault.Registry)(nil).Fire(context.Background(), site); err != nil {
			t.Fatalf("%s: %v", site, err)
		}
	}
}

// TestSnapshotFaultInjectedCorruption drives the snapshot.write
// corrupt rule: the file lands genuinely self-inconsistent on disk and
// the next read quarantines it, exactly like a torn write.
func TestSnapshotFaultInjectedCorruption(t *testing.T) {
	rule, err := fault.ParseRule("snapshot.write:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteSnapshot(path, fileState(), fault.New(1).Add(rule)); err != nil {
		t.Fatalf("corrupt-rule write should still write: %v", err)
	}
	if _, err := ReadSnapshot(path, nil); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("mangled file read: err=%v, want durable.ErrCorrupt", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}

// TestSnapshotFaultInjectedReadError pins that an injected read failure
// surfaces without touching the (healthy) file.
func TestSnapshotFaultInjectedReadError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteSnapshot(path, fileState(), nil); err != nil {
		t.Fatal(err)
	}
	rule, err := fault.ParseRule("snapshot.read:error")
	if err != nil {
		t.Fatal(err)
	}
	reg := fault.New(1).Add(rule)
	if _, err := ReadSnapshot(path, reg); err == nil {
		t.Fatal("injected read error did not surface")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("healthy file disturbed by injected error: %v", err)
	}
	if reg.Fired(fault.SiteSnapshotRead) == 0 {
		t.Fatal("read site never fired")
	}
}
