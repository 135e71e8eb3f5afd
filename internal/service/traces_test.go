package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/durable"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// traceConfig is a trace-sized config: explicit small windows so
// WithDefaults doesn't substitute the full-size ones and recordings
// stay a few kilobytes.
func traceConfig(bench string) sim.Config {
	return sim.Config{
		Benchmark:    bench,
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		PrewarmInsts: 1000,
		WarmupInsts:  100,
		MeasureInsts: 2000,
	}
}

// recordFor records traceConfig(bench)'s stream and returns the raw
// trace bytes plus their content digest.
func recordFor(t *testing.T, bench string) ([]byte, string) {
	t.Helper()
	data, err := sim.RecordTrace(traceConfig(bench), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.OpenTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	return data, tr.Digest()
}

// postTrace uploads raw trace bytes, optionally claiming a digest.
func postTrace(t *testing.T, url string, data []byte, claim string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/traces", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if claim != "" {
		req.Header.Set("X-Trace-Digest", claim)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func waitForJob(t *testing.T, svc *Service, id string) {
	t.Helper()
	waitFor(t, func() bool {
		jv, err := svc.Job(id)
		return err == nil && jv.State.Terminal()
	})
}

func waitForSweep(t *testing.T, svc *Service, id string) {
	t.Helper()
	waitFor(t, func() bool {
		sv, err := svc.Sweep(id)
		return err == nil && sv.Done+sv.Failed == sv.Total
	})
}

// TestTraceUploadHappyPath: a checksum-claimed upload lands (201), is
// listed, and downloads back byte-identical.
func TestTraceUploadHappyPath(t *testing.T) {
	svc, ts := newTestServer(t, stubSim, Options{TraceDir: t.TempDir()})
	data, digest := recordFor(t, "gcc")

	resp, _ := postTrace(t, ts.URL, data, digest)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: got %d, want 201", resp.StatusCode)
	}
	var views []traceView
	getJSON(t, ts.URL+"/v1/traces", &views)
	if len(views) != 1 || views[0].Digest != digest || views[0].Benchmark != "gcc" {
		t.Fatalf("listing: %+v", views)
	}
	if views[0].Count == 0 || views[0].Bytes != int64(len(data)) {
		t.Fatalf("listing metadata: %+v", views[0])
	}

	got, err := http.Get(ts.URL + "/v1/traces/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	round, err := io.ReadAll(got.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != http.StatusOK || !bytes.Equal(round, data) {
		t.Fatalf("download: status %d, %d bytes (want %d identical)", got.StatusCode, len(round), len(data))
	}
	if st := svc.TraceStats(); st.Stored != 1 || st.Uploads != 1 || st.Served != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Unknown digests are a plain 404.
	missing, err := http.Get(ts.URL + "/v1/traces/" + "00" + digest[2:])
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: got %d, want 404", missing.StatusCode)
	}
}

// TestTraceUploadChecksumMismatch: a wrong client claim and corrupted
// bytes are both 400s, and neither stores anything.
func TestTraceUploadChecksumMismatch(t *testing.T) {
	svc, ts := newTestServer(t, stubSim, Options{TraceDir: t.TempDir()})
	data, digest := recordFor(t, "li")

	wrongClaim := "00" + digest[2:]
	if resp, body := postTrace(t, ts.URL, data, wrongClaim); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong claim: got %d (%s), want 400", resp.StatusCode, body)
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40 // damage the payload; the sealed trailer no longer matches
	if resp, body := postTrace(t, ts.URL, corrupt, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt bytes: got %d (%s), want 400", resp.StatusCode, body)
	}

	if st := svc.TraceStats(); st.Stored != 0 || st.Uploads != 0 {
		t.Fatalf("rejected uploads left state behind: %+v", st)
	}
}

// TestTraceUploadTooLarge: a body past MaxTraceBytes answers 413 before
// any verification runs.
func TestTraceUploadTooLarge(t *testing.T) {
	svc, ts := newTestServer(t, stubSim, Options{TraceDir: t.TempDir(), MaxTraceBytes: 1024})
	data, digest := recordFor(t, "compress")
	if len(data) <= 1024 {
		t.Fatalf("fixture too small to exceed the cap: %d bytes", len(data))
	}
	if resp, _ := postTrace(t, ts.URL, data, digest); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: got %d, want 413", resp.StatusCode)
	}
	if st := svc.TraceStats(); st.Stored != 0 {
		t.Fatalf("oversized upload stored something: %+v", st)
	}
}

// TestTraceUploadDedup: re-uploading a stored digest is answered 200
// from the existing file, not written again.
func TestTraceUploadDedup(t *testing.T) {
	svc, ts := newTestServer(t, stubSim, Options{TraceDir: t.TempDir()})
	data, digest := recordFor(t, "tomcatv")

	if resp, _ := postTrace(t, ts.URL, data, digest); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload: got %d, want 201", resp.StatusCode)
	}
	if resp, _ := postTrace(t, ts.URL, data, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate upload: got %d, want 200", resp.StatusCode)
	}
	if st := svc.TraceStats(); st.Stored != 1 || st.Uploads != 1 || st.Dedups != 1 {
		t.Fatalf("stats after dedup: %+v", st)
	}
}

// TestTraceUploadReplacesCorruptCopy: a stored trace that rotted on
// disk is not a dedup hit. Re-uploading it verifies the stored copy,
// quarantines it and writes the upload, so the next job over the digest
// runs instead of failing validation.
func TestTraceUploadReplacesCorruptCopy(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newTestServer(t, stubSim, Options{TraceDir: dir})
	data, digest := recordFor(t, "compress")
	if resp, _ := postTrace(t, ts.URL, data, digest); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload: got %d, want 201", resp.StatusCode)
	}
	stored := filepath.Join(dir, digest+".trace")
	rotten := append([]byte(nil), data...)
	rotten[len(rotten)/2] ^= 0x40
	if err := os.WriteFile(stored, rotten, 0o644); err != nil {
		t.Fatal(err)
	}

	if resp, body := postTrace(t, ts.URL, data, digest); resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-upload over a corrupt copy: got %d (%s), want 201 (rewritten, not deduped)", resp.StatusCode, body)
	}
	if _, err := os.Stat(stored + ".corrupt"); err != nil {
		t.Errorf("corrupt copy not quarantined: %v", err)
	}
	if st := svc.TraceStats(); st.Stored != 1 || st.Uploads != 2 || st.Dedups != 0 {
		t.Fatalf("stats after replacing the corrupt copy: %+v", st)
	}

	cfg := traceConfig("compress")
	cfg.Trace = &sim.TraceRef{Digest: digest}
	view, _, err := svc.Submit(cfg)
	if err != nil {
		t.Fatalf("job over the re-uploaded trace refused: %v", err)
	}
	waitForJob(t, svc, view.ID)
	if jv, err := svc.Job(view.ID); err != nil || jv.State != StateDone {
		t.Fatalf("job over the re-uploaded trace: %+v, %v", jv, err)
	}
}

// TestTraceSweepByDigest: a sweep whose configs reference an uploaded
// trace by digest alone resolves against the store, runs, and pins the
// digest in every member job's canonical config.
func TestTraceSweepByDigest(t *testing.T) {
	svc, ts := newTestServer(t, stubSim, Options{TraceDir: t.TempDir()})
	data, digest := recordFor(t, "gcc")
	if resp, _ := postTrace(t, ts.URL, data, digest); resp.StatusCode != http.StatusCreated {
		t.Fatal("upload failed")
	}

	var cfgs []sim.Config
	for _, size := range []int{16 << 10, 32 << 10} {
		cfg := traceConfig("gcc")
		cfg.Memory = mem.DefaultSRAMSystem(size, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true)
		cfg.Trace = &sim.TraceRef{Digest: digest}
		cfgs = append(cfgs, cfg)
	}
	view, err := svc.SubmitSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if view.Total != 2 {
		t.Fatalf("sweep admitted %d members, want 2", view.Total)
	}
	waitForSweep(t, svc, view.ID)
	for _, id := range view.JobIDs {
		jv, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if jv.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, jv.State, jv.Error)
		}
		if jv.Config.Trace == nil || jv.Config.Trace.Digest != digest || jv.Config.Trace.Path == "" {
			t.Fatalf("job %s trace ref not resolved: %+v", id, jv.Config.Trace)
		}
	}

	// A digest nobody uploaded is the submitter's error, not a crash.
	bad := traceConfig("gcc")
	bad.Trace = &sim.TraceRef{Digest: "00" + digest[2:]}
	if _, err := svc.SubmitSweep([]sim.Config{bad}); err == nil {
		t.Fatal("sweep over an unknown digest was admitted")
	}
}

// TestTraceWorkerFetch: a service with TraceFetchURL set (a cluster
// worker) fills store misses from its coordinator exactly once —
// resubmission is served from the local store with zero re-fetches.
func TestTraceWorkerFetch(t *testing.T) {
	coord, coordTS := newTestServer(t, stubSim, Options{TraceDir: t.TempDir()})
	data, digest := recordFor(t, "vcs")
	if resp, _ := postTrace(t, coordTS.URL, data, digest); resp.StatusCode != http.StatusCreated {
		t.Fatal("upload to coordinator failed")
	}

	worker, _ := newTestServer(t, stubSim, Options{
		TraceDir:      t.TempDir(),
		TraceFetchURL: coordTS.URL,
	})
	cfg := traceConfig("vcs")
	cfg.Trace = &sim.TraceRef{Digest: digest}
	jv, _, err := worker.Submit(cfg)
	if err != nil {
		t.Fatalf("worker submit: %v", err)
	}
	waitForJob(t, worker, jv.ID)
	if st := worker.TraceStats(); st.Fetched != 1 || st.Stored != 1 {
		t.Fatalf("worker stats after first submit: %+v", st)
	}
	if st := coord.TraceStats(); st.Served != 1 {
		t.Fatalf("coordinator served %d fetches, want 1", st.Served)
	}

	// Same digest again, different cache size so it's not a job dedup:
	// the worker's own store answers, the coordinator sees nothing.
	cfg2 := cfg
	cfg2.Memory = mem.DefaultSRAMSystem(16<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true)
	jv2, _, err := worker.Submit(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	waitForJob(t, worker, jv2.ID)
	if st := worker.TraceStats(); st.Fetched != 1 {
		t.Fatalf("worker re-fetched: %+v", st)
	}
	if st := coord.TraceStats(); st.Served != 1 {
		t.Fatalf("coordinator saw a redundant fetch: %+v", st)
	}

	// A worker with no upstream reports a store miss as the submitter's
	// error instead of hanging.
	lone, _ := newTestServer(t, stubSim, Options{TraceDir: t.TempDir()})
	if _, _, err := lone.Submit(cfg); err == nil {
		t.Fatal("digest-only submit with no store and no upstream was admitted")
	}
}

// TestTraceJobRealSim runs a trace-backed job through the service on
// the real simulator and checks the served result is bit-identical to a
// direct replay of the same resolved config — the HTTP layer adds and
// loses nothing.
func TestTraceJobRealSim(t *testing.T) {
	dir := t.TempDir()
	cfg := traceConfig("database")
	data, err := sim.RecordTrace(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "database.trace")
	if err := durable.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	digest, err := workload.TraceFileDigest(path)
	if err != nil {
		t.Fatal(err)
	}

	r, err := runner.New(runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(r, Options{TraceDir: t.TempDir()})
	defer svc.Shutdown(context.Background())

	// Submit by server-local path: resolveTrace imports it into the
	// store and pins the digest.
	cfg.Trace = &sim.TraceRef{Path: path}
	jv, _, err := svc.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitForJob(t, svc, jv.ID)
	jv, err = svc.Job(jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jv.State != StateDone {
		t.Fatalf("job failed: %s", jv.Error)
	}
	if jv.Config.Trace.Digest != digest {
		t.Fatalf("imported trace pinned digest %s, want %s", jv.Config.Trace.Digest, digest)
	}
	direct, err := sim.RunContext(context.Background(), jv.Config, sim.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*jv.Result, direct) {
		t.Fatalf("service result diverged from direct replay:\nservice: %+v\ndirect:  %+v", *jv.Result, direct)
	}
}
