package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"hbcache/internal/fault"
	"hbcache/internal/sim"
)

// RemoteStoreStats is a point-in-time snapshot of a RemoteStore's
// counters, the observable record of how much fleet-wide dedup the
// shared store is buying.
type RemoteStoreStats struct {
	Gets      int64 `json:"gets"`       // lookups attempted
	Hits      int64 `json:"hits"`       // lookups answered with a verified entry
	Puts      int64 `json:"puts"`       // writes accepted by the server
	PutErrors int64 `json:"put_errors"` // writes dropped (network, server rejection)
	Corrupt   int64 `json:"corrupt"`    // fetched entries that failed verification
}

// RemoteStore is the Store backend over HTTP: results live in a store
// served by another process (normally the cluster coordinator's
// /v1/store endpoints), so every worker in a fleet shares one
// content-addressed result space and each unique config is simulated
// once, cluster-wide.
//
// Failure behavior follows the Store contract: an unreachable server or
// a mangled response is a Get miss (the job re-simulates locally) and a
// dropped Put (the result still returns to the caller). Fetched entries
// are checksum-verified before they are trusted; entries that fail
// verification count in CorruptEntries and are never served.
type RemoteStore struct {
	base   string
	hc     *http.Client
	faults *fault.Registry

	gets    atomic.Int64
	hits    atomic.Int64
	puts    atomic.Int64
	putErrs atomic.Int64
	corrupt atomic.Int64
}

// NewRemoteStore builds a store client against base (e.g.
// "http://coordinator:8080"). A nil client selects one with a 30s
// overall timeout — store calls must never wedge a simulation worker.
// faults, when non-nil, arms the store.remote.{get,put} chaos sites.
func NewRemoteStore(base string, hc *http.Client, faults *fault.Registry) *RemoteStore {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &RemoteStore{base: strings.TrimRight(base, "/"), hc: hc, faults: faults}
}

// URL reports the server base URL this store talks to.
func (r *RemoteStore) URL() string { return r.base }

// Stats returns a snapshot of the client-side counters.
func (r *RemoteStore) Stats() RemoteStoreStats {
	return RemoteStoreStats{
		Gets:      r.gets.Load(),
		Hits:      r.hits.Load(),
		Puts:      r.puts.Load(),
		PutErrors: r.putErrs.Load(),
		Corrupt:   r.corrupt.Load(),
	}
}

// Get fetches the entry for key from the remote server. Any failure —
// network, non-200 status, a body that fails durable.Open or holds
// another key — is a miss; only a verified entry is served.
func (r *RemoteStore) Get(key string) (sim.Result, bool) {
	r.gets.Add(1)
	// Store sites have no caller context (the Store interface is
	// deliberately context-free; the HTTP client's timeout bounds the
	// call); injected errors behave as network misses.
	if err := r.faults.Fire(context.Background(), fault.SiteStoreRemoteGet); err != nil {
		return sim.Result{}, false
	}
	resp, err := r.hc.Get(r.base + "/v1/store/" + key)
	if err != nil {
		return sim.Result{}, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return sim.Result{}, false
	}
	e, err := readEntry(resp.Body, key)
	if err != nil {
		r.corrupt.Add(1)
		return sim.Result{}, false
	}
	r.hits.Add(1)
	return e.Result, true
}

// Put uploads a sealed entry for key. The server verifies the record
// before accepting, so a write mangled in flight is rejected
// rather than stored.
func (r *RemoteStore) Put(key string, cfg sim.Config, res sim.Result) error {
	if err := r.faults.Fire(context.Background(), fault.SiteStoreRemotePut); err != nil {
		r.putErrs.Add(1)
		return err
	}
	b, err := sealEntry(key, cfg, res)
	if err != nil {
		r.putErrs.Add(1)
		return err
	}
	req, err := http.NewRequest(http.MethodPut, r.base+"/v1/store/"+key, bytes.NewReader(b))
	if err != nil {
		r.putErrs.Add(1)
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		r.putErrs.Add(1)
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		r.putErrs.Add(1)
		return fmt.Errorf("runner: remote store put %s: HTTP %d", key[:8], resp.StatusCode)
	}
	r.puts.Add(1)
	return nil
}

// Keys lists every key the remote server holds.
func (r *RemoteStore) Keys() ([]string, error) {
	resp, err := r.hc.Get(r.base + "/v1/store")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("runner: remote store keys: HTTP %d", resp.StatusCode)
	}
	var body struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Keys, nil
}

// CorruptEntries counts fetched entries that failed verification.
func (r *RemoteStore) CorruptEntries() int64 { return r.corrupt.Load() }
