package durable_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hbcache/internal/cluster"
	"hbcache/internal/cpu"
	"hbcache/internal/durable"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
	"hbcache/internal/snapshot"
	"hbcache/internal/workload"
)

// errMiss is what a cache read reports for a miss: the cache answers
// hit or miss, not an error.
var errMiss = errors.New("cache miss")

// artefact is one stored file of some kind, with the kind's own read
// path and quarantine counter.
type artefact struct {
	path string
	// read reads the artefact back through its kind's reader and
	// returns what it decoded; a nil error is a verified hit.
	read func() (any, error)
	// corrupt reports whether err is the kind's result for bytes that
	// fail verification.
	corrupt     func(err error) bool
	quarantined func() int64
	// entries counts what the kind's listing reports; nil when the kind
	// has no listing.
	entries func() int
}

// kinds builds a freshly written artefact of each kind in dir.
var kinds = []struct {
	name  string
	write func(t *testing.T, dir string) artefact
}{
	{"cache-entry", func(t *testing.T, dir string) artefact {
		c, err := runner.NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{
			Benchmark:    "gcc",
			Seed:         7,
			CPU:          cpu.DefaultConfig(),
			Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
			MeasureInsts: 1000,
		}
		key, err := runner.Key(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(key, cfg, sim.Result{Benchmark: "gcc", Cycles: 1234, IPC: 1.5}); err != nil {
			t.Fatal(err)
		}
		return artefact{
			path: filepath.Join(dir, key[:2], key+".json"),
			read: func() (any, error) {
				res, ok := c.Get(key)
				if !ok {
					return nil, errMiss
				}
				return res, nil
			},
			corrupt:     func(err error) bool { return err == errMiss },
			quarantined: c.CorruptEntries,
			entries: func() int {
				keys, err := c.Keys()
				if err != nil {
					t.Fatal(err)
				}
				return len(keys)
			},
		}
	}},
	{"snapshot", func(t *testing.T, dir string) artefact {
		const kind = "contract-test"
		type payload struct{ Cycle, PC uint64 }
		path := filepath.Join(dir, "prewarm-gcc.json")
		if err := snapshot.Save(path, kind, payload{Cycle: 99, PC: 0x400000}, nil); err != nil {
			t.Fatal(err)
		}
		return artefact{
			path: path,
			read: func() (any, error) {
				var p payload
				err := snapshot.Load(path, kind, &p, nil)
				return p, err
			},
			corrupt: func(err error) bool {
				return errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrVersion) || errors.Is(err, snapshot.ErrKind)
			},
			quarantined: snapshot.Quarantined,
		}
	}},
	{"trace", func(t *testing.T, dir string) artefact {
		data, err := workload.RecordTrace("apsi", 1, 200)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := workload.OpenTrace(data)
		if err != nil {
			t.Fatal(err)
		}
		// The service's trace store lists dir: one file per digest.
		path := filepath.Join(dir, tr.Digest()+".trace")
		if err := durable.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		r, err := runner.New(runner.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(r, service.Options{TraceDir: dir})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		})
		return artefact{
			path: path,
			read: func() (any, error) {
				tr, err := workload.OpenTraceFile(path)
				if err != nil {
					return nil, err
				}
				return tr.Digest(), nil
			},
			corrupt: func(err error) bool {
				return errors.Is(err, workload.ErrTraceCorrupt) || errors.Is(err, workload.ErrTraceVersion) || errors.Is(err, workload.ErrTraceKind)
			},
			quarantined: workload.TracesQuarantined,
			entries:     func() int { return svc.TraceStats().Stored },
		}
	}},
}

// damages are the ways a stored file goes bad, each applied at every
// byte offset i of the file.
var damages = []struct {
	name   string
	damage func(b []byte, i int) []byte
}{
	{"bit-flip", func(b []byte, i int) []byte {
		b[i] ^= 1 << (i % 8)
		return b
	}},
	{"torn-tail", func(b []byte, i int) []byte { return b[:i] }},
}

// TestCrashSafetyDamageQuarantines: for every artefact kind, every damage
// and every offset, a read either reports the kind's corrupt result or
// decodes exactly what was written — never different data. A detected
// damage moves the file to *.corrupt, counts exactly one quarantine,
// and leaves a clean os.ErrNotExist miss for the next read and the
// listing. Undetected damage exists only where the bytes decode to the
// same value: the JSON kinds match field names case-insensitively and
// ignore unknown ones, so a flipped letter case in a name, a flipped
// name of a zero-valued field, or a lost trailing newline re-encodes
// to the sealed bytes and verifies.
func TestCrashSafetyDamageQuarantines(t *testing.T) {
	for _, k := range kinds {
		for _, d := range damages {
			t.Run(k.name+"/"+d.name, func(t *testing.T) {
				a := k.write(t, t.TempDir())
				want, err := a.read()
				if err != nil {
					t.Fatalf("fresh artefact does not read back: %v", err)
				}
				good, err := os.ReadFile(a.path)
				if err != nil {
					t.Fatal(err)
				}
				detected := 0
				for i := range good {
					bad := d.damage(bytes.Clone(good), i)
					if err := os.WriteFile(a.path, bad, 0o644); err != nil {
						t.Fatal(err)
					}
					before := a.quarantined()
					got, err := a.read()
					if err == nil {
						if !reflect.DeepEqual(got, want) || a.quarantined() != before {
							t.Fatalf("offset %d: damaged file read back as %+v, want %+v or a corrupt result", i, got, want)
						}
						continue
					}
					detected++
					if !a.corrupt(err) {
						t.Fatalf("offset %d: damaged read: err = %v, want the kind's corrupt result", i, err)
					}
					if got := a.quarantined(); got != before+1 {
						t.Fatalf("offset %d: quarantine counter = %d, want %d", i, got, before+1)
					}
					if kept, err := os.ReadFile(a.path + ".corrupt"); err != nil || !bytes.Equal(kept, bad) {
						t.Fatalf("offset %d: *.corrupt does not hold the damaged bytes: %v", i, err)
					}
					if _, err := os.Stat(a.path); !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("offset %d: damaged file still at its path: %v", i, err)
					}
					if _, err := a.read(); err != errMiss && !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("offset %d: next read = %v, want a clean miss", i, err)
					}
					if got := a.quarantined(); got != before+1 {
						t.Fatalf("offset %d: the next read quarantined again: counter %d, want %d", i, got, before+1)
					}
					if a.entries != nil && a.entries() != 0 {
						t.Fatalf("offset %d: listing still reports %d entries after quarantine", i, a.entries())
					}
					if err := os.Remove(a.path + ".corrupt"); err != nil {
						t.Fatal(err)
					}
				}
				if detected == 0 {
					t.Fatal("no damage was detected")
				}
				t.Logf("%d of %d damaged files quarantined; the rest read back intact", detected, len(good))
			})
		}
	}
}

// TestCrashSafetyLeftoverTempIgnored: a *.tmp-* file left by a crash
// between write and rename is not an entry. Reads of the path see only
// the renamed file, and listings do not count the temp file.
func TestCrashSafetyLeftoverTempIgnored(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			a := k.write(t, t.TempDir())
			good, err := os.ReadFile(a.path)
			if err != nil {
				t.Fatal(err)
			}
			tmp := a.path + ".tmp-123456"
			if err := os.WriteFile(tmp, good[:len(good)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			before := a.quarantined()
			if _, err := a.read(); err != nil {
				t.Errorf("read beside a leftover temp file: %v", err)
			}
			if a.entries != nil && a.entries() != 1 {
				t.Errorf("listing reports %d entries, want 1 (the temp file is not one)", a.entries())
			}

			// With the real file gone the temp file is still invisible:
			// the read is a plain miss, nothing is quarantined.
			if err := os.Remove(a.path); err != nil {
				t.Fatal(err)
			}
			if _, err := a.read(); err == nil || a.quarantined() != before {
				t.Errorf("read with only a temp file = %v (quarantined %d→%d), want a miss", err, before, a.quarantined())
			}
			if a.entries != nil && a.entries() != 0 {
				t.Errorf("listing reports %d entries with only a temp file, want 0", a.entries())
			}
			if _, err := os.Stat(tmp); err != nil {
				t.Errorf("read touched the temp file: %v", err)
			}
		})
	}
}

// TestCrashSafetyJournalTornTail: the sweep journal appends instead of
// renaming, so a crash tears at most its final line. Replay quarantines
// that line to <journal>.corrupt and keeps every record before it.
func TestCrashSafetyJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := cluster.OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []cluster.Record{
		{Type: cluster.RecordSweep, SweepID: "sweep-000001"},
		{Type: cluster.RecordResult, Key: "k1"},
		{Type: cluster.RecordSweep, SweepID: "sweep-000002"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	torn := b[:len(b)-20]
	if err := os.WriteFile(j.Path(), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := cluster.Replay(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.Corrupt != 1 {
		t.Fatalf("replay: %d records, %d corrupt; want 2 and 1", st.Records, st.Corrupt)
	}
	if len(st.Sweeps) != 1 || st.Sweeps[0].ID != "sweep-000001" || !st.Done["k1"] {
		t.Fatalf("replay lost a record before the torn line: sweeps %+v, done %v", st.Sweeps, st.Done)
	}
	q, err := os.ReadFile(j.Path() + ".corrupt")
	if err != nil {
		t.Fatal(err)
	}
	lastLine := torn[bytes.LastIndexByte(torn, '\n')+1:]
	if !bytes.Equal(bytes.TrimSpace(q), lastLine) {
		t.Errorf("quarantined %q, want the torn line %q", q, lastLine)
	}
}
