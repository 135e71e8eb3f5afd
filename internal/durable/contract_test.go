package durable_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
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
	"hbcache/internal/workload"
)

// errMiss is what a cache or store read reports for a miss: those
// stores answer hit or miss, not an error.
var errMiss = errors.New("cache miss")

// errCorruptLine is what a journal read reports when replay
// quarantined a line.
var errCorruptLine = errors.New("journal line quarantined")

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
	// inPlace marks kinds whose damaged bytes stay at path: a journal
	// copies a bad line to <journal>.corrupt and replays past it, and a
	// store body is refused by the client. Every read detects the
	// damage again.
	inPlace bool
	// emptyIsMiss marks an append-only kind whose file torn back to
	// empty has lost its record whole: nothing to recover, nothing to
	// quarantine.
	emptyIsMiss bool
}

// contractConfig is the config the cache, journal and store kinds hold.
func contractConfig() sim.Config {
	return sim.Config{
		Benchmark:    "gcc",
		Seed:         7,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		MeasureInsts: 1000,
	}
}

// contractResult is the result the cache and store kinds hold.
var contractResult = sim.Result{Benchmark: "gcc", Cycles: 1234, IPC: 1.5}

// storeGet reads key through s as a runner does: a hit or errMiss.
func storeGet(s runner.Store, key string) (any, error) {
	res, ok := s.Get(key)
	if !ok {
		return nil, errMiss
	}
	return res, nil
}

func mustKey(t *testing.T, cfg sim.Config) string {
	t.Helper()
	key, err := runner.Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return key
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
		cfg := contractConfig()
		key := mustKey(t, cfg)
		if err := c.Put(key, cfg, contractResult); err != nil {
			t.Fatal(err)
		}
		return artefact{
			path:        filepath.Join(dir, key[:2], key+".json"),
			read:        func() (any, error) { return storeGet(c, key) },
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
		path := filepath.Join(dir, "abort-gcc.json")
		st := &sim.MachineState{Config: contractConfig(), Phase: "measure", Remaining: 99}
		if err := sim.WriteSnapshot(path, st, nil); err != nil {
			t.Fatal(err)
		}
		return artefact{
			path:        path,
			read:        func() (any, error) { return sim.ReadSnapshot(path, nil) },
			corrupt:     func(err error) bool { return errors.Is(err, durable.ErrCorrupt) },
			quarantined: sim.SnapshotsQuarantined,
		}
	}},
	{"journal-line", func(t *testing.T, dir string) artefact {
		j, err := cluster.OpenJournal(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := cluster.Record{Type: cluster.RecordSweep, SweepID: "sweep-000001", Configs: []sim.Config{contractConfig()}}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var lines int64 // lines replay quarantined
		return artefact{
			path: j.Path(),
			read: func() (any, error) {
				st, err := cluster.Replay(dir, nil)
				if err != nil {
					return nil, err
				}
				lines += int64(st.Corrupt)
				switch {
				case st.Corrupt > 0:
					return nil, errCorruptLine
				case st.Records == 0:
					return nil, errMiss
				}
				return st, nil
			},
			corrupt:     func(err error) bool { return err == errCorruptLine },
			quarantined: func() int64 { return lines },
			inPlace:     true,
			emptyIsMiss: true,
		}
	}},
	{"store-body", func(t *testing.T, dir string) artefact {
		// The body the coordinator's store server sends for key...
		cfg := contractConfig()
		key := mustKey(t, cfg)
		backing := runner.NewMemStore()
		if err := backing.Put(key, cfg, contractResult); err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		runner.NewStoreServer(backing).Register(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		resp, err := http.Get(srv.URL + "/v1/store/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/store/%s = %d (%v)", key, resp.StatusCode, err)
		}
		path := filepath.Join(dir, key+".body")
		if err := durable.WriteFile(path, body); err != nil {
			t.Fatal(err)
		}
		// ...served from path, so the damage loop can alter it, and
		// opened as a worker's RemoteStore.Get opens it.
		files := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			b, err := os.ReadFile(path)
			if err != nil {
				http.NotFound(w, r)
				return
			}
			w.Write(b)
		}))
		t.Cleanup(files.Close)
		rs := runner.NewRemoteStore(files.URL, files.Client(), nil)
		return artefact{
			path:        path,
			read:        func() (any, error) { return storeGet(rs, key) },
			corrupt:     func(err error) bool { return err == errMiss },
			quarantined: rs.CorruptEntries,
			inPlace:     true,
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
// and every offset, a read reports the kind's corrupt result and
// counts one quarantine. No single-bit flip verifies: every JSON kind
// is a durable.Seal record whose checksum covers its exact bytes, and
// traces checksum theirs. The one damage that may read back intact is
// a torn tail that drops only a record's final newline. A file kind's
// detected damage moves the file to *.corrupt and leaves a clean
// os.ErrNotExist miss for the next read and the listing; an in-place
// kind detects it again on every read.
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
					if len(bad) == 0 && a.emptyIsMiss {
						if err != errMiss || a.quarantined() != before {
							t.Fatalf("empty file: err = %v, quarantined %d→%d; want a clean miss", err, before, a.quarantined())
						}
						continue
					}
					if err == nil {
						if !reflect.DeepEqual(got, want) || a.quarantined() != before {
							t.Fatalf("offset %d: damaged file read back as %+v, want %+v or a corrupt result", i, got, want)
						}
						if d.name != "torn-tail" || i != len(good)-1 || good[i] != '\n' {
							t.Fatalf("offset %d: %s damage verified", i, d.name)
						}
						continue
					}
					detected++
					if !a.corrupt(err) {
						t.Fatalf("offset %d: damaged read: err = %v, want the kind's corrupt result", i, err)
					}
					// A flip that makes a newline splits a journal line
					// in two, each quarantined.
					if q := a.quarantined() - before; q < 1 || (q > 1 && !a.inPlace) {
						t.Fatalf("offset %d: quarantine counter grew by %d, want 1", i, q)
					}
					if a.inPlace {
						continue
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
