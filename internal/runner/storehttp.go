package runner

import (
	"encoding/json"
	"net/http"
	"sync/atomic"

	"hbcache/internal/sim"
)

// StoreServerStats is a snapshot of a StoreServer's counters — the
// server-side view of fleet-wide dedup (Hits are lookups the fleet did
// not have to re-simulate).
type StoreServerStats struct {
	Gets    int64 `json:"gets"`    // lookups received
	Hits    int64 `json:"hits"`    // lookups answered from the store
	Puts    int64 `json:"puts"`    // uploads accepted
	Rejects int64 `json:"rejects"` // uploads refused (bad key, failed checksum)
}

// StoreServer exposes a Store over HTTP — the server half of
// RemoteStore. The coordinator mounts it so its store becomes the
// fleet's shared result space:
//
//	GET /v1/store/{key}   sealed entry, or 404
//	PUT /v1/store/{key}   sealed entry in the body; verified on arrival
//	GET /v1/store         {"keys": [...]}
//
// Uploads are verified before they are accepted: an entry that fails
// durable.Open or whose key does not match the URL is rejected with
// 400 (and counted), so one worker with a flaky NIC cannot poison the
// fleet's shared results.
type StoreServer struct {
	store Store

	gets    atomic.Int64
	hits    atomic.Int64
	puts    atomic.Int64
	rejects atomic.Int64
}

// NewStoreServer serves s over HTTP.
func NewStoreServer(s Store) *StoreServer { return &StoreServer{store: s} }

// Stats returns a snapshot of the server-side counters.
func (s *StoreServer) Stats() StoreServerStats {
	return StoreServerStats{
		Gets:    s.gets.Load(),
		Hits:    s.hits.Load(),
		Puts:    s.puts.Load(),
		Rejects: s.rejects.Load(),
	}
}

// Register mounts the store routes on mux.
func (s *StoreServer) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/store/{key}", s.handleGet)
	mux.HandleFunc("PUT /v1/store/{key}", s.handlePut)
	mux.HandleFunc("GET /v1/store", s.handleKeys)
}

func (s *StoreServer) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.gets.Add(1)
	res, ok := s.store.Get(key)
	if !ok {
		http.Error(w, "no entry for key", http.StatusNotFound)
		return
	}
	s.hits.Add(1)
	// Re-seal on the way out: the backing store returns only the result
	// (its own integrity checks already ran), so the wire entry's
	// checksum covers exactly what this response carries.
	b, err := sealEntry(key, sim.Config{}, res)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}

func (s *StoreServer) handlePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	e, err := readEntry(http.MaxBytesReader(w, r.Body, 1<<22), key)
	if err != nil {
		s.rejects.Add(1)
		http.Error(w, "entry failed verification: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.store.Put(key, e.Config, e.Result); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.puts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *StoreServer) handleKeys(w http.ResponseWriter, r *http.Request) {
	keys, err := s.store.Keys()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string][]string{"keys": keys})
}
