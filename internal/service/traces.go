package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hbcache/internal/durable"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// This file is the service's trace surface: user-supplied workloads as
// first-class, content-addressed artifacts.
//
//	POST /v1/traces           upload a recording (checksum-verified,
//	                          size-capped, deduplicated by digest)
//	GET  /v1/traces           list stored traces
//	GET  /v1/traces/{digest}  download one (what cluster workers fetch)
//
// Jobs and sweeps reference traces through sim.Config.Trace. At submit
// time resolveTrace rewrites the ref to this node's store: a digest the
// store holds resolves immediately, a server-local path is imported
// (and content-addressed) on first use, and a digest this node lacks is
// fetched from Options.TraceFetchURL — how a cluster worker pulls a
// coordinator-held trace exactly once, then serves every later sweep
// from disk.

// ErrTooLarge wraps uploads over Options.MaxTraceBytes; the handler
// layer maps it to HTTP 413.
var ErrTooLarge = errors.New("service: upload too large")

// DefaultMaxTraceBytes caps trace uploads when Options.MaxTraceBytes is
// zero: generous next to the ~7 bytes/instruction encoding (a 64 MiB
// trace replays roughly 9M instructions, an order of magnitude past the
// default windows) while still bounding one request's memory.
const DefaultMaxTraceBytes = 64 << 20

// traceStore is a content-addressed blob store of verified traces: one
// file per digest under dir. It is deliberately append-only — traces
// are immutable by construction (the digest IS the content), so there
// is no invalidation, only dedup.
type traceStore struct {
	mu   sync.Mutex
	dir  string
	temp bool // dir was auto-created; Shutdown removes it

	uploads uint64 // uploads that stored a new trace
	dedups  uint64 // uploads answered by an existing digest
	served  uint64 // trace downloads served (the zero-refetch witness)
	fetched uint64 // traces pulled from TraceFetchURL
}

func newTraceStore(dir string) *traceStore {
	return &traceStore{dir: dir}
}

// ensureDir materializes the store directory on first use.
func (ts *traceStore) ensureDir() (string, error) {
	if ts.dir == "" {
		dir, err := os.MkdirTemp("", "hbcache-traces-*")
		if err != nil {
			return "", fmt.Errorf("service: creating trace dir: %w", err)
		}
		ts.dir, ts.temp = dir, true
		return dir, nil
	}
	if err := os.MkdirAll(ts.dir, 0o755); err != nil {
		return "", fmt.Errorf("service: creating trace dir: %w", err)
	}
	return ts.dir, nil
}

func (ts *traceStore) pathFor(digest string) string {
	return filepath.Join(ts.dir, digest+".trace")
}

// lookup reports the store path of digest if present.
func (ts *traceStore) lookup(digest string) (string, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.dir == "" || digest == "" {
		return "", false
	}
	p := ts.pathFor(digest)
	if _, err := os.Stat(p); err != nil {
		return "", false
	}
	return p, true
}

// put verifies data as a complete trace and stores it under its content
// digest. wantDigest, when non-empty, is the uploader's claimed
// checksum — a mismatch is rejected before anything lands on disk.
// Storing bytes the store already holds intact is a no-op dedup; a
// stored copy that fails verification is quarantined by OpenTraceFile
// and replaced by the upload.
func (ts *traceStore) put(data []byte, wantDigest string) (tr *workload.Trace, path string, existed bool, err error) {
	tr, err = workload.OpenTrace(data)
	if err != nil {
		return nil, "", false, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if wantDigest != "" && !strings.EqualFold(wantDigest, tr.Digest()) {
		return nil, "", false, fmt.Errorf("%w: uploaded bytes have digest %.12s…, request claimed %.12s…", ErrInvalid, tr.Digest(), wantDigest)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, err := ts.ensureDir(); err != nil {
		return nil, "", false, err
	}
	p := ts.pathFor(tr.Digest())
	if _, verr := workload.OpenTraceFile(p); verr == nil {
		ts.dedups++
		return tr, p, true, nil
	}
	if err := durable.WriteFile(p, data); err != nil {
		return nil, "", false, fmt.Errorf("service: storing trace: %w", err)
	}
	ts.uploads++
	return tr, p, false, nil
}

// list returns the digests of every stored trace, sorted.
func (ts *traceStore) list() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.dir == "" {
		return nil
	}
	entries, err := os.ReadDir(ts.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".trace"); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// cleanup removes an auto-created temp directory.
func (ts *traceStore) cleanup() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.temp && ts.dir != "" {
		os.RemoveAll(ts.dir)
		ts.dir, ts.temp = "", false
	}
}

// resolveTrace rewrites cfg's trace ref against this node's store so
// the runner (and its cache key) sees a digest-pinned, locally readable
// trace. Resolution order: the store already holds the digest; the
// ref's path names a readable server-local file (imported and
// content-addressed on first use); the digest is fetched from
// Options.TraceFetchURL. Anything else is the submitter's error.
func (s *Service) resolveTrace(cfg *sim.Config) error {
	ref := cfg.Trace
	if ref == nil {
		return nil
	}
	if ref.Digest == "" && ref.Path == "" {
		return fmt.Errorf("%w: trace ref needs a digest or a path", ErrInvalid)
	}
	if p, ok := s.traces.lookup(ref.Digest); ok {
		cfg.Trace = &sim.TraceRef{Path: p, Digest: ref.Digest}
		return nil
	}
	if ref.Path != "" {
		data, err := os.ReadFile(ref.Path)
		if err != nil {
			return fmt.Errorf("%w: trace %s: %v", ErrInvalid, ref.Path, err)
		}
		tr, p, _, err := s.traces.put(data, ref.Digest)
		if err != nil {
			return err
		}
		cfg.Trace = &sim.TraceRef{Path: p, Digest: tr.Digest()}
		return nil
	}
	if s.opts.TraceFetchURL == "" {
		return fmt.Errorf("%w: trace %.12s… not in this server's store (upload it via POST /v1/traces)", ErrInvalid, ref.Digest)
	}
	data, err := s.fetchTrace(ref.Digest)
	if err != nil {
		return err
	}
	tr, p, _, err := s.traces.put(data, ref.Digest)
	if err != nil {
		return err
	}
	cfg.Trace = &sim.TraceRef{Path: p, Digest: tr.Digest()}
	return nil
}

// fetchTrace pulls one trace from the configured upstream (a worker's
// coordinator). The caller verifies and stores the bytes, so a
// corrupted hop is caught by the same checksum as a corrupted upload.
func (s *Service) fetchTrace(digest string) ([]byte, error) {
	u := strings.TrimSuffix(s.opts.TraceFetchURL, "/") + "/v1/traces/" + url.PathEscape(digest)
	resp, err := http.Get(u)
	if err != nil {
		return nil, fmt.Errorf("%w: fetching trace %.12s…: %v", ErrInvalid, digest, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: trace %.12s… not available upstream (%s)", ErrInvalid, digest, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, s.opts.MaxTraceBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: fetching trace %.12s…: %v", ErrInvalid, digest, err)
	}
	if int64(len(data)) > s.opts.MaxTraceBytes {
		return nil, fmt.Errorf("%w: upstream trace %.12s… exceeds %d bytes", ErrTooLarge, digest, s.opts.MaxTraceBytes)
	}
	s.traces.mu.Lock()
	s.traces.fetched++
	s.traces.mu.Unlock()
	return data, nil
}

// traceView is the wire representation of a stored trace.
type traceView struct {
	Digest    string `json:"digest"`
	Benchmark string `json:"benchmark"`
	Seed      uint64 `json:"seed"`
	Count     uint64 `json:"count"`
	Bytes     int64  `json:"bytes"`
}

// handleUploadTrace accepts raw hbcache-trace-v1 bytes. The upload is
// size-capped (413 past Options.MaxTraceBytes), checksum-verified (the
// file's own sealed trailer, plus the optional client claim in
// X-Trace-Digest or ?digest=), and deduplicated: re-uploading a stored
// digest answers 200 without writing, a new one answers 201.
func (s *Service) handleUploadTrace(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxTraceBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, fmt.Errorf("%w: trace exceeds this server's limit of %d bytes", ErrTooLarge, s.opts.MaxTraceBytes))
			return
		}
		s.writeError(w, fmt.Errorf("%w: reading upload: %v", ErrInvalid, err))
		return
	}
	claim := r.Header.Get("X-Trace-Digest")
	if claim == "" {
		claim = r.URL.Query().Get("digest")
	}
	tr, _, existed, err := s.traces.put(data, claim)
	if err != nil {
		s.writeError(w, err)
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	hdr := tr.Header()
	writeJSON(w, status, traceView{
		Digest:    tr.Digest(),
		Benchmark: hdr.Benchmark,
		Seed:      hdr.Seed,
		Count:     hdr.Count,
		Bytes:     int64(len(data)),
	})
}

// handleGetTrace serves a stored trace's raw bytes — the fetch side of
// cluster distribution.
func (s *Service) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	p, ok := s.traces.lookup(digest)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: trace %q", ErrNotFound, digest))
		return
	}
	data, err := os.ReadFile(p)
	if err != nil {
		s.writeError(w, fmt.Errorf("service: reading trace: %w", err))
		return
	}
	s.traces.mu.Lock()
	s.traces.served++
	s.traces.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Trace-Digest", digest)
	_, _ = w.Write(data)
}

// handleListTraces lists stored traces with their headers.
func (s *Service) handleListTraces(w http.ResponseWriter, r *http.Request) {
	var views []traceView
	for _, digest := range s.traces.list() {
		p, ok := s.traces.lookup(digest)
		if !ok {
			continue
		}
		tr, err := workload.OpenTraceFile(p)
		if err != nil {
			continue // quarantined by the open; drop from the listing
		}
		fi, _ := os.Stat(p)
		var size int64
		if fi != nil {
			size = fi.Size()
		}
		hdr := tr.Header()
		views = append(views, traceView{
			Digest:    tr.Digest(),
			Benchmark: hdr.Benchmark,
			Seed:      hdr.Seed,
			Count:     hdr.Count,
			Bytes:     size,
		})
	}
	if views == nil {
		views = []traceView{}
	}
	writeJSON(w, http.StatusOK, views)
}

// TraceStats reports the trace store's counters, primarily for tests
// and the metrics endpoint.
type TraceStats struct {
	Stored  int    `json:"stored"`
	Uploads uint64 `json:"uploads"`
	Dedups  uint64 `json:"dedups"`
	Served  uint64 `json:"served"`
	Fetched uint64 `json:"fetched"`
}

// TraceStats snapshots the trace store.
func (s *Service) TraceStats() TraceStats {
	stored := len(s.traces.list())
	s.traces.mu.Lock()
	defer s.traces.mu.Unlock()
	return TraceStats{
		Stored:  stored,
		Uploads: s.traces.uploads,
		Dedups:  s.traces.dedups,
		Served:  s.traces.served,
		Fetched: s.traces.fetched,
	}
}
