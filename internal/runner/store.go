package runner

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"hbcache/internal/durable"
	"hbcache/internal/sim"
)

// Store is the pluggable result-store seam: a content-addressed map
// from the runner's canonical config key to a finished simulation
// result. The disk Cache, the in-memory MemStore, and the HTTP
// RemoteStore all implement it, so a runner can checkpoint against a
// local directory, a test fixture, or a coordinator shared by a whole
// worker fleet without knowing the difference.
//
// Semantics every backend preserves:
//
//   - Get is a lookup, never an error: a missing, unreachable, or
//     corrupt entry is a miss, and a miss only costs a re-simulation.
//   - Put is durable on success and atomic with respect to Get — a
//     reader never observes a half-written entry.
//   - Keys lists every stored key (order unspecified) for resume
//     tooling and tests.
//   - CorruptEntries counts entries that failed their integrity check
//     and were quarantined or rejected; corrupt bytes are never served.
type Store interface {
	Get(key string) (sim.Result, bool)
	Put(key string, cfg sim.Config, res sim.Result) error
	Keys() ([]string, error)
	CorruptEntries() int64
}

// StoreKind is the durable record kind of a sealed StoreEntry: every
// disk cache file and every /v1/store body is one.
const StoreKind = "hbcache-store-entry"

// StoreEntry is the payload of the sealed record shared by every Store
// backend, on disk and on the wire. The config rides along purely for
// debuggability — `cat` a cache file (or GET a store URL) and see what
// produced it. The record's checksum (durable.Seal) covers the exact
// stored bytes, so torn writes, bit rot and mangled uploads are
// detected instead of silently served.
type StoreEntry struct {
	Key    string
	Config sim.Config
	Result sim.Result
}

// sealEntry seals key's entry into the bytes every backend stores and
// sends.
func sealEntry(key string, cfg sim.Config, res sim.Result) ([]byte, error) {
	return durable.Seal(StoreKind, StoreEntry{Key: key, Config: cfg, Result: res})
}

// openEntry verifies sealed entry bytes and checks that they hold key's
// entry. Every failure wraps durable.ErrCorrupt.
func openEntry(b []byte, key string) (StoreEntry, error) {
	var e StoreEntry
	if err := durable.Open(b, StoreKind, &e); err != nil {
		return e, err
	}
	if e.Key != key {
		return e, fmt.Errorf("%w: entry for key %.12s, want %.12s", durable.ErrCorrupt, e.Key, key)
	}
	return e, nil
}

// readEntry reads sealed entry bytes, at most 4 MiB, from r and opens
// them as key's entry.
func readEntry(r io.Reader, key string) (StoreEntry, error) {
	b, err := io.ReadAll(io.LimitReader(r, 1<<22))
	if err != nil {
		return StoreEntry{}, err
	}
	return openEntry(b, key)
}

// MemStore is an in-memory Store: a mutex-guarded map. It backs tests,
// ephemeral coordinators that only need fleet-wide dedup for the life
// of the process, and the remote store's server side when no disk is
// wanted. Entries cannot rot in memory, so CorruptEntries is always 0.
type MemStore struct {
	mu      sync.RWMutex
	entries map[string]StoreEntry
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{entries: map[string]StoreEntry{}}
}

// Get returns the stored result for key, if present.
func (m *MemStore) Get(key string) (sim.Result, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[key]
	return e.Result, ok
}

// Put stores a result under key, replacing any previous entry.
func (m *MemStore) Put(key string, cfg sim.Config, res sim.Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[key] = StoreEntry{Key: key, Config: cfg, Result: res}
	return nil
}

// Keys lists the stored keys, sorted for deterministic output.
func (m *MemStore) Keys() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// CorruptEntries is always 0: memory does not rot.
func (m *MemStore) CorruptEntries() int64 { return 0 }

// Len reports the number of stored entries, for tests and tooling.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}
