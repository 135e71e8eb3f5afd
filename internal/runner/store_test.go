package runner

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"hbcache/internal/fault"
	"hbcache/internal/sim"
)

// putEntry PUTs the bytes b raw (no client-side resealing) and returns
// the response body and response.
func putEntry(t *testing.T, base, key string, b []byte) (string, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/store/"+key, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp
}

// sealedEntry seals key's entry, failing the test on error.
func sealedEntry(t *testing.T, key string, cfg sim.Config, res sim.Result) []byte {
	t.Helper()
	b, err := sealEntry(key, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tamper changes one payload byte of a sealed entry after sealing.
func tamper(b []byte) []byte {
	b[bytes.Index(b, []byte(`"payload":`))+len(`"payload":`)+2] ^= 1
	return b
}

// storeKey makes a well-formed (64 hex char) key with a recognizable
// prefix, so disk sharding by key[:2] works like production keys.
func storeKey(b byte) string {
	k := make([]byte, 64)
	for i := range k {
		k[i] = "0123456789abcdef"[b%16]
	}
	k[63] = "0123456789abcdef"[(b/16)%16]
	return string(k)
}

func storeResult(i int) sim.Result {
	return sim.Result{Benchmark: "gcc", Cycles: uint64(1000 + i), Instructions: 500, IPC: float64(i) / 2}
}

// newRemoteTestStore builds a RemoteStore talking to a StoreServer over
// a real HTTP listener, backed by a fresh MemStore.
func newRemoteTestStore(t *testing.T) Store {
	t.Helper()
	srv := NewStoreServer(NewMemStore())
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return NewRemoteStore(ts.URL, ts.Client(), nil)
}

// TestStoreContract runs the shared Store semantics against every
// backend: disk, in-memory, and HTTP/remote. Get/Put/Keys/Corrupt
// behavior must be interchangeable — the runner and the cluster pick a
// backend by flag, not by code path.
func TestStoreContract(t *testing.T) {
	backends := []struct {
		name string
		mk   func(t *testing.T) Store
	}{
		{"disk", func(t *testing.T) Store {
			c, err := NewCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"mem", func(t *testing.T) Store { return NewMemStore() }},
		{"remote", newRemoteTestStore},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			t.Run("MissOnAbsent", func(t *testing.T) {
				s := be.mk(t)
				if _, ok := s.Get(storeKey(1)); ok {
					t.Error("Get on empty store reported a hit")
				}
				if n := s.CorruptEntries(); n != 0 {
					t.Errorf("CorruptEntries on empty store = %d, want 0", n)
				}
			})
			t.Run("PutGetRoundtrip", func(t *testing.T) {
				s := be.mk(t)
				cfg := stubConfig(3)
				want := storeResult(3)
				if err := s.Put(storeKey(2), cfg, want); err != nil {
					t.Fatal(err)
				}
				got, ok := s.Get(storeKey(2))
				if !ok {
					t.Fatal("Get after Put missed")
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Get = %+v, want %+v", got, want)
				}
				// A different key is still a miss.
				if _, ok := s.Get(storeKey(3)); ok {
					t.Error("Get of a never-Put key hit")
				}
			})
			t.Run("OverwriteLastWins", func(t *testing.T) {
				s := be.mk(t)
				k := storeKey(4)
				if err := s.Put(k, stubConfig(1), storeResult(1)); err != nil {
					t.Fatal(err)
				}
				if err := s.Put(k, stubConfig(1), storeResult(9)); err != nil {
					t.Fatal(err)
				}
				got, ok := s.Get(k)
				if !ok || got.Cycles != storeResult(9).Cycles {
					t.Errorf("Get after overwrite = %+v ok=%v, want the second Put", got, ok)
				}
			})
			t.Run("KeysListsAll", func(t *testing.T) {
				s := be.mk(t)
				want := []string{storeKey(5), storeKey(6), storeKey(7)}
				for i, k := range want {
					if err := s.Put(k, stubConfig(i), storeResult(i)); err != nil {
						t.Fatal(err)
					}
				}
				got, err := s.Keys()
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Keys = %v, want %v", got, want)
				}
			})
		})
	}
}

// TestRemoteStoreVerification pins the checksum discipline on both
// sides of the wire: the server rejects uploads that fail
// verification, and the client refuses to serve a mangled response.
func TestRemoteStoreVerification(t *testing.T) {
	backing := NewMemStore()
	srv := NewStoreServer(backing)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	t.Run("ServerRejectsBadChecksum", func(t *testing.T) {
		// A PUT whose body was mangled in flight: seal, then corrupt.
		// The raw HTTP path is used so the client's own sealing cannot
		// hide the tamper.
		b := tamper(sealedEntry(t, storeKey(8), stubConfig(1), storeResult(1)))
		body, resp := putEntry(t, ts.URL, storeKey(8), b)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("tampered PUT = %d (%s), want 400", resp.StatusCode, body)
		}
		if backing.Len() != 0 {
			t.Error("tampered entry landed in the backing store")
		}
		if st := srv.Stats(); st.Rejects != 1 {
			t.Errorf("server Rejects = %d, want 1", st.Rejects)
		}
	})

	t.Run("ServerRejectsKeyMismatch", func(t *testing.T) {
		b := sealedEntry(t, storeKey(9), stubConfig(1), storeResult(1))
		body, resp := putEntry(t, ts.URL, storeKey(10), b) // URL key ≠ entry key
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("key-mismatched PUT = %d (%s), want 400", resp.StatusCode, body)
		}
	})

	t.Run("ClientCountsCorruptResponses", func(t *testing.T) {
		// A server that returns a mangled entry for any key.
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(tamper(sealedEntry(t, r.PathValue("key"), sim.Config{}, storeResult(1))))
		}))
		defer bad.Close()
		rs := NewRemoteStore(bad.URL, bad.Client(), nil)
		if _, ok := rs.Get(storeKey(11)); ok {
			t.Error("mangled entry was served as a hit")
		}
		if got := rs.CorruptEntries(); got != 1 {
			t.Errorf("CorruptEntries = %d, want 1", got)
		}
		if st := rs.Stats(); st.Gets != 1 || st.Hits != 0 {
			t.Errorf("Stats = %+v, want 1 get, 0 hits", st)
		}
	})
}

// TestRemoteStoreFaultSites pins the chaos behavior: an injected get
// error is a miss, an injected put error drops the write.
func TestRemoteStoreFaultSites(t *testing.T) {
	backing := NewMemStore()
	srv := NewStoreServer(backing)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	reg := fault.New(1).Add(
		fault.Rule{Site: fault.SiteStoreRemoteGet, Kind: fault.KindError, Limit: 1},
		fault.Rule{Site: fault.SiteStoreRemotePut, Kind: fault.KindError, Limit: 1},
	)
	rs := NewRemoteStore(ts.URL, ts.Client(), reg)

	if err := rs.Put(storeKey(12), stubConfig(1), storeResult(1)); err == nil {
		t.Error("Put with an armed put fault succeeded, want injected error")
	}
	if backing.Len() != 0 {
		t.Error("faulted Put still reached the server")
	}
	// Second put: fault exhausted, goes through.
	if err := rs.Put(storeKey(12), stubConfig(1), storeResult(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.Get(storeKey(12)); ok {
		t.Error("Get with an armed get fault hit, want miss")
	}
	if _, ok := rs.Get(storeKey(12)); !ok {
		t.Error("Get after fault exhausted missed, want hit")
	}
}

// TestRunnerWithRemoteStore runs the runner end to end against a remote
// store: the first runner simulates and uploads, a second runner (a
// different "worker") is served from the shared store without
// simulating — the cluster-wide dedup primitive.
func TestRunnerWithRemoteStore(t *testing.T) {
	srv := NewStoreServer(NewMemStore())
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	mk := func() (*Runner, *atomic.Int64) {
		var sims atomic.Int64
		r, err := New(Options{
			Workers: 2,
			Store:   NewRemoteStore(ts.URL, ts.Client(), nil),
			Sim:     countingSim(&sims),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, &sims
	}
	r1, sims1 := mk()
	jr := runJob(context.Background(), r1, stubConfig(1))
	if jr.Err != nil || jr.CacheHit || sims1.Load() != 1 {
		t.Fatalf("first worker: %+v sims=%d, want one fresh simulation", jr, sims1.Load())
	}

	r2, sims2 := mk()
	jr2 := runJob(context.Background(), r2, stubConfig(1))
	if jr2.Err != nil || !jr2.CacheHit || sims2.Load() != 0 {
		t.Fatalf("second worker: %+v sims=%d, want a shared-store hit and zero simulations", jr2, sims2.Load())
	}
	if !reflect.DeepEqual(jr.Result, jr2.Result) {
		t.Errorf("results differ across workers: %+v vs %+v", jr.Result, jr2.Result)
	}
	if st := srv.Stats(); st.Puts != 1 || st.Hits != 1 {
		t.Errorf("server stats = %+v, want exactly one put and one served hit", st)
	}
}
