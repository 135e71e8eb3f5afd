package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/durable"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// The cluster e2e tests exercise the real thing: separate hbserved
// processes for coordinator and workers, real HTTP between them, and a
// real SIGKILL. They are the acceptance test for the distributed sweep
// fabric, so they build the binary once per test run.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "hbserved-e2e-*")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "hbserved")
		out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// proc is one spawned hbserved process.
type proc struct {
	cmd    *exec.Cmd
	base   string // http://host:port once the listen line appears
	stderr *lockedBuffer
}

// lockedBuffer collects a child's stderr. exec's copy goroutine writes
// it while the child runs, and tests read it before the child exits, so
// both sides take the lock.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startProc launches the binary and waits for its listen line.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{stderr: &lockedBuffer{}}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			_ = p.cmd.Process.Kill()
			_ = p.cmd.Wait()
		}
	})

	lineCh := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		lineCh <- line
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case line := <-lineCh:
		addr := strings.TrimSpace(strings.TrimPrefix(line, "listening on "))
		if addr == "" {
			t.Fatalf("no listen line from %v (stderr: %s)", args, p.stderr.String())
		}
		p.base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("hbserved %v did not announce a listener (stderr: %s)", args, p.stderr.String())
	}
	return p
}

// kill delivers SIGKILL — the unclean death the fabric must absorb.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = p.cmd.Wait()
}

// freePort reserves an ephemeral port and releases it for a child
// process to bind; the tiny reuse race is fine in tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func e2eConfig(i int, insts uint64) sim.Config {
	return sim.Config{
		Benchmark:    "gcc",
		Seed:         uint64(i + 1),
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		MeasureInsts: insts,
	}
}

func submitSweep(t *testing.T, base string, cfgs []sim.Config) string {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"configs": cfgs})
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view service.SweepView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || view.ID == "" {
		t.Fatalf("sweep submit to %s = %d %+v", base, resp.StatusCode, view)
	}
	return view.ID
}

// awaitSweep polls until the sweep completes (or the deadline passes)
// and returns its results.
func awaitSweep(t *testing.T, base, id string, deadline time.Duration) service.SweepResults {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		resp, err := http.Get(base + "/v1/sweeps/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		var res service.SweepResults
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			return res
		}
		if time.Now().After(stop) {
			t.Fatalf("sweep %s incomplete after %v: %d/%d done, %d failed", id, deadline, res.Done, res.Total, res.Failed)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// scrapeCounter reads one (unlabeled) counter off a /metrics page.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.e+-]+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found on %s", name, base)
	}
	var v float64
	fmt.Sscanf(string(m[1]), "%g", &v)
	return v
}

// TestClusterE2E is the fabric acceptance test: a coordinator over two
// worker processes must produce byte-identical results to a
// single-process server, simulate each unique config exactly once
// cluster-wide, and expose a fleet-aware readiness endpoint.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}
	bin := binary(t)

	coordAddr := freePort(t)
	coordURL := "http://" + coordAddr
	w1 := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2", "-store", "remote", "-store-url", coordURL)
	w2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2", "-store", "remote", "-store-url", coordURL)
	coord := startProc(t, bin,
		"-addr", coordAddr,
		"-role", "coordinator",
		"-workers", w1.base+","+w2.base,
	)
	single := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2")

	// 8 unique points plus 2 in-sweep duplicates.
	cfgs := make([]sim.Config, 0, 10)
	for i := 0; i < 8; i++ {
		cfgs = append(cfgs, e2eConfig(i, 20000))
	}
	cfgs = append(cfgs, e2eConfig(0, 20000), e2eConfig(3, 20000))

	clusterRes := awaitSweep(t, coord.base, submitSweep(t, coord.base, cfgs), 2*time.Minute)
	singleRes := awaitSweep(t, single.base, submitSweep(t, single.base, cfgs), 2*time.Minute)

	if clusterRes.Failed != 0 || singleRes.Failed != 0 {
		t.Fatalf("failures: cluster=%d single=%d, want 0", clusterRes.Failed, singleRes.Failed)
	}
	for i := range cfgs {
		cp, sp := clusterRes.Points[i], singleRes.Points[i]
		if cp.Result == nil || sp.Result == nil {
			t.Fatalf("point %d missing a result: cluster=%v single=%v", i, cp.Result, sp.Result)
		}
		// Byte-identical: the distributed path must not perturb the
		// simulation, only relocate it.
		cb, _ := json.Marshal(cp.Result)
		sb, _ := json.Marshal(sp.Result)
		if !bytes.Equal(cb, sb) {
			t.Errorf("point %d differs across paths:\ncluster: %s\nsingle:  %s", i, cb, sb)
		}
	}

	// Exactly-once, cluster-wide: the fleet's simulators ran once per
	// unique config; duplicates were deduplicated, not re-run.
	sims := scrapeCounter(t, w1.base, "hbserved_runner_simulated_total") +
		scrapeCounter(t, w2.base, "hbserved_runner_simulated_total")
	if sims != 8 {
		t.Errorf("fleet simulated %v times, want exactly 8 (one per unique config)", sims)
	}

	// Resubmitting the whole sweep costs zero new simulations: the
	// coordinator's store and dedup layers answer everything.
	rerun := awaitSweep(t, coord.base, submitSweep(t, coord.base, cfgs), time.Minute)
	if rerun.Failed != 0 {
		t.Fatalf("rerun failed %d points", rerun.Failed)
	}
	sims2 := scrapeCounter(t, w1.base, "hbserved_runner_simulated_total") +
		scrapeCounter(t, w2.base, "hbserved_runner_simulated_total")
	if sims2 != sims {
		t.Errorf("rerun consumed %v extra simulations, want 0", sims2-sims)
	}

	// Fleet-aware readiness on the coordinator.
	var rd struct {
		Ready   bool `json:"ready"`
		Cluster *struct {
			Reachable int `json:"reachable"`
			Total     int `json:"total"`
		} `json:"cluster"`
	}
	resp, err := http.Get(coord.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&rd)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rd.Ready {
		t.Errorf("coordinator readyz = %d %+v, want ready", resp.StatusCode, rd)
	}
	if rd.Cluster == nil || rd.Cluster.Reachable != 2 || rd.Cluster.Total != 2 {
		t.Errorf("coordinator cluster block = %+v, want 2/2 reachable", rd.Cluster)
	}
}

// storeKeys lists the keys a server's result store serves over HTTP.
func storeKeys(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/store = %d", resp.StatusCode)
	}
	var body struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Keys
}

// TestClusterE2ECoordinatorDiskStore pins coordinator-side store
// persistence: with -store disk the fleet's shared result space lives
// in -cache-dir, so after the coordinator dies by SIGKILL and restarts
// on the same directory, every sealed entry is still served at
// /v1/store/{key} and a resubmitted sweep costs the fleet zero new
// simulations.
func TestClusterE2ECoordinatorDiskStore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}
	bin := binary(t)
	cacheDir := t.TempDir()

	coordAddr := freePort(t)
	coordURL := "http://" + coordAddr
	w1 := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2", "-store", "remote", "-store-url", coordURL)
	coordArgs := []string{
		"-addr", coordAddr,
		"-role", "coordinator",
		"-workers", w1.base,
		"-store", "disk",
		"-cache-dir", cacheDir,
	}
	coord := startProc(t, bin, coordArgs...)

	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = e2eConfig(i+200, 20000)
	}
	res := awaitSweep(t, coord.base, submitSweep(t, coord.base, cfgs), 2*time.Minute)
	if res.Failed != 0 {
		t.Fatalf("sweep failed %d points", res.Failed)
	}
	keys := storeKeys(t, coord.base)
	if len(keys) != len(cfgs) {
		t.Fatalf("store holds %d keys after the sweep, want %d", len(keys), len(cfgs))
	}
	simsBefore := scrapeCounter(t, w1.base, "hbserved_runner_simulated_total")
	if simsBefore != float64(len(cfgs)) {
		t.Fatalf("worker simulated %v points, want %d", simsBefore, len(cfgs))
	}

	// The unclean death: nothing flushes, nothing hands over. Only the
	// disk store survives.
	coord.kill(t)
	coord = startProc(t, bin, coordArgs...)

	after := storeKeys(t, coord.base)
	if len(after) != len(keys) {
		t.Fatalf("store serves %d keys after restart, want %d", len(after), len(keys))
	}
	for _, key := range keys {
		resp, err := http.Get(coord.base + "/v1/store/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("GET /v1/store/%s after restart = %d (err %v)", key, resp.StatusCode, err)
		}
		var e runner.StoreEntry
		if err := durable.Open(body, runner.StoreKind, &e); err != nil || e.Key != key {
			t.Fatalf("entry %s failed verification after restart: %v (holds key %s)", key, err, e.Key)
		}
	}

	// Resubmitting the sweep must be answered entirely from the
	// persisted store: the worker's simulator never runs again.
	rerun := awaitSweep(t, coord.base, submitSweep(t, coord.base, cfgs), time.Minute)
	if rerun.Failed != 0 {
		t.Fatalf("post-restart rerun failed %d points", rerun.Failed)
	}
	if sims := scrapeCounter(t, w1.base, "hbserved_runner_simulated_total"); sims != simsBefore {
		t.Errorf("post-restart rerun consumed %v extra simulations, want 0", sims-simsBefore)
	}
}

// TestClusterE2EWorkerKill kills one worker process with SIGKILL while
// a sweep is in flight; the fabric must reassign its points and finish
// the sweep with zero failures.
func TestClusterE2EWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}
	bin := binary(t)

	coordAddr := freePort(t)
	coordURL := "http://" + coordAddr
	w1 := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2", "-store", "remote", "-store-url", coordURL)
	w2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2", "-store", "remote", "-store-url", coordURL)
	coord := startProc(t, bin,
		"-addr", coordAddr,
		"-role", "coordinator",
		"-workers", w1.base+","+w2.base,
		"-breaker-threshold", "2",
	)

	// Enough work, slow enough, that the kill lands mid-sweep.
	cfgs := make([]sim.Config, 24)
	for i := range cfgs {
		cfgs[i] = e2eConfig(i+100, 200000)
	}
	id := submitSweep(t, coord.base, cfgs)

	// Wait until the sweep is demonstrably in flight, then murder w2.
	deadline := time.Now().Add(time.Minute)
	for {
		if scrapeCounter(t, coord.base, "hbserved_runner_done_total") > 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never got going")
		}
		time.Sleep(10 * time.Millisecond)
	}
	w2.kill(t)

	res := awaitSweep(t, coord.base, id, 3*time.Minute)
	if res.Failed != 0 {
		for _, p := range res.Points {
			if p.Error != "" {
				t.Logf("point error: %s", p.Error)
			}
		}
		t.Fatalf("sweep failed %d/%d points after worker kill", res.Failed, res.Total)
	}
	for i, p := range res.Points {
		if p.Result == nil || p.Result.Instructions == 0 {
			t.Errorf("point %d has no real result after failover: %+v", i, p)
		}
	}

	// The survivor absorbed work and the dead worker is reported down.
	var rd struct {
		Cluster *struct {
			Workers []service.WorkerStatus `json:"workers"`
		} `json:"cluster"`
	}
	resp, err := http.Get(coord.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&rd)
	resp.Body.Close()
	if err != nil || rd.Cluster == nil {
		t.Fatalf("readyz after kill: err=%v cluster=%v", err, rd.Cluster)
	}
	byURL := map[string]service.WorkerStatus{}
	for _, w := range rd.Cluster.Workers {
		byURL[w.URL] = w
	}
	if w := byURL[w2.base]; w.Healthy {
		t.Errorf("killed worker still reported healthy: %+v", w)
	}
	if w := byURL[w1.base]; w.Completed == 0 {
		t.Errorf("surviving worker completed nothing: %+v", w)
	}
	if !reflect.DeepEqual(len(rd.Cluster.Workers), 2) {
		t.Errorf("fleet size = %d, want 2", len(rd.Cluster.Workers))
	}
}

// getReadyz fetches /readyz, returning the status code and decoded body.
func getReadyz(t *testing.T, base string) (int, struct {
	Ready   bool                   `json:"ready"`
	Reason  string                 `json:"reason"`
	Cluster *service.ClusterStatus `json:"cluster"`
}) {
	t.Helper()
	var rd struct {
		Ready   bool                   `json:"ready"`
		Reason  string                 `json:"reason"`
		Cluster *service.ClusterStatus `json:"cluster"`
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&rd)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, rd
}

// TestClusterE2ECoordinatorCrashRecovery is the tentpole acceptance
// test: SIGKILL the coordinator mid-sweep, vandalize its journal for
// good measure, restart it against the same -journal-dir and
// -cache-dir, and the original sweep — same ID — completes with results
// byte-identical to a single-process run, the corrupt line quarantined,
// and zero duplicate simulations anywhere in the fleet.
func TestClusterE2ECoordinatorCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}
	bin := binary(t)
	cacheDir := t.TempDir()
	journalDir := t.TempDir()

	coordAddr := freePort(t)
	coordURL := "http://" + coordAddr
	w1 := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2", "-store", "remote", "-store-url", coordURL)
	coordArgs := []string{
		"-addr", coordAddr,
		"-role", "coordinator",
		"-workers", w1.base,
		"-store", "disk",
		"-cache-dir", cacheDir,
		"-journal-dir", journalDir,
		"-hedge-after", "-1s",
	}
	coord := startProc(t, bin, coordArgs...)
	single := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2")

	// Slow enough that the kill lands with the sweep genuinely in
	// flight: some points in the store, some mid-simulation, some queued.
	cfgs := make([]sim.Config, 10)
	for i := range cfgs {
		cfgs[i] = e2eConfig(i+300, 200000)
	}
	id := submitSweep(t, coord.base, cfgs)
	singleID := submitSweep(t, single.base, cfgs)

	deadline := time.Now().Add(time.Minute)
	for {
		if done := scrapeCounter(t, coord.base, "hbserved_runner_done_total"); done >= 2 && done < float64(len(cfgs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never caught the sweep mid-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	coord.kill(t)

	// Bit-rot while the coordinator is down: a garbage line in the
	// journal. Replay must quarantine it and recover everything else.
	jf, err := os.OpenFile(filepath.Join(journalDir, "sweeps.journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString("garbage written while the coordinator was dead\n"); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	coord = startProc(t, bin, coordArgs...)

	// The journaled sweep is back under its original ID and completes.
	res := awaitSweep(t, coord.base, id, 3*time.Minute)
	if res.Failed != 0 {
		for _, p := range res.Points {
			if p.Error != "" {
				t.Logf("point error: %s", p.Error)
			}
		}
		t.Fatalf("recovered sweep failed %d/%d points", res.Failed, res.Total)
	}

	// Byte-identical to the single-process run: recovery must not
	// perturb a single result, only re-route the unfinished work.
	singleRes := awaitSweep(t, single.base, singleID, 3*time.Minute)
	for i := range cfgs {
		cb, _ := json.Marshal(res.Points[i].Result)
		sb, _ := json.Marshal(singleRes.Points[i].Result)
		if !bytes.Equal(cb, sb) {
			t.Errorf("point %d differs after recovery:\nrecovered: %s\nsingle:    %s", i, cb, sb)
		}
	}

	// Zero duplicate simulations: every point the worker finished before
	// (or during) the crash is re-served from the disk store or the
	// worker's own dedup — the fleet's simulator ran once per config.
	if sims := scrapeCounter(t, w1.base, "hbserved_runner_simulated_total"); sims != float64(len(cfgs)) {
		t.Errorf("worker simulated %v times across the crash, want exactly %d", sims, len(cfgs))
	}

	// The restart replayed the journal and quarantined the garbage.
	if replays := scrapeCounter(t, coord.base, "hbserved_cluster_journal_replays_total"); replays < 1 {
		t.Errorf("journal replays = %v, want at least 1", replays)
	}
	if _, err := os.Stat(filepath.Join(journalDir, "sweeps.journal.corrupt")); err != nil {
		t.Errorf("corrupt journal line not quarantined: %v", err)
	}
	if !strings.Contains(coord.stderr.String(), "corrupt line(s) quarantined") {
		t.Errorf("restart did not report the quarantine; stderr: %s", coord.stderr.String())
	}
}

// uploadTrace POSTs raw trace bytes to a server, returning the HTTP
// status and the digest the server assigned.
func uploadTrace(t *testing.T, base string, data []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Digest string `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, view.Digest
}

// TestClusterE2ETraceSweep is the trace frontend's fabric acceptance
// test: a recorded workload uploaded once to the coordinator backs a
// sweep dispatched across two workers, byte-identical to the same sweep
// on a single-process server, and resubmitting the sweep (plus
// re-uploading the trace) moves zero new trace bytes anywhere — the
// duplicate upload dedups to 200 and the workers re-serve the recording
// from their local stores.
func TestClusterE2ETraceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}
	bin := binary(t)

	coordAddr := freePort(t)
	coordURL := "http://" + coordAddr
	w1 := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2",
		"-store", "remote", "-store-url", coordURL, "-register", coordURL)
	w2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2",
		"-store", "remote", "-store-url", coordURL, "-register", coordURL)
	coord := startProc(t, bin,
		"-addr", coordAddr,
		"-role", "coordinator",
		"-workers", w1.base+","+w2.base,
	)
	single := startProc(t, bin, "-addr", "127.0.0.1:0", "-j", "2")

	// Record one small workload; explicit windows keep the trace tiny.
	base := sim.Config{
		Benchmark:    "pmake",
		Seed:         5,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		PrewarmInsts: 1000,
		WarmupInsts:  100,
		MeasureInsts: 5000,
	}
	data, err := sim.RecordTrace(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.OpenTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	digest := tr.Digest()

	// One upload per server the client talks to — never per worker.
	if code, got := uploadTrace(t, coord.base, data); code != http.StatusCreated || got != digest {
		t.Fatalf("coordinator upload = %d digest %s, want 201 %s", code, got, digest)
	}
	if code, _ := uploadTrace(t, single.base, data); code != http.StatusCreated {
		t.Fatalf("single-server upload = %d, want 201", code)
	}

	// Six cache sizes over the same recording, referenced by digest only.
	sizes := []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	cfgs := make([]sim.Config, len(sizes))
	for i, size := range sizes {
		cfg := base
		cfg.Memory = mem.DefaultSRAMSystem(size, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true)
		cfg.Trace = &sim.TraceRef{Digest: digest}
		cfgs[i] = cfg
	}
	clusterRes := awaitSweep(t, coord.base, submitSweep(t, coord.base, cfgs), 2*time.Minute)
	singleRes := awaitSweep(t, single.base, submitSweep(t, single.base, cfgs), 2*time.Minute)
	if clusterRes.Failed != 0 || singleRes.Failed != 0 {
		for _, p := range append(clusterRes.Points, singleRes.Points...) {
			if p.Error != "" {
				t.Logf("point error: %s", p.Error)
			}
		}
		t.Fatalf("failures: cluster=%d single=%d, want 0", clusterRes.Failed, singleRes.Failed)
	}
	for i := range cfgs {
		cb, _ := json.Marshal(clusterRes.Points[i].Result)
		sb, _ := json.Marshal(singleRes.Points[i].Result)
		if !bytes.Equal(cb, sb) {
			t.Errorf("point %d differs across paths:\ncluster: %s\nsingle:  %s", i, cb, sb)
		}
	}

	// Each worker acquired the recording at most once, however it got it
	// (fetch from the coordinator or same-host path import).
	transfers := func() float64 {
		total := 0.0
		for _, w := range []*proc{w1, w2} {
			total += scrapeCounter(t, w.base, "hbserved_trace_fetches_total") +
				scrapeCounter(t, w.base, "hbserved_trace_uploads_total")
		}
		return total
	}
	moved := transfers()
	if moved > 2 {
		t.Errorf("fleet acquired the trace %v times, want at most once per worker", moved)
	}

	// Resubmission: the duplicate upload dedups without storing, the
	// sweep re-serves from the store, and zero new trace bytes move.
	if code, _ := uploadTrace(t, coord.base, data); code != http.StatusOK {
		t.Fatalf("duplicate upload = %d, want 200 dedup", code)
	}
	if ups := scrapeCounter(t, coord.base, "hbserved_trace_uploads_total"); ups != 1 {
		t.Errorf("coordinator stored %v uploads, want the original 1", ups)
	}
	if dedups := scrapeCounter(t, coord.base, "hbserved_trace_dedup_total"); dedups != 1 {
		t.Errorf("coordinator deduped %v uploads, want 1", dedups)
	}
	rerun := awaitSweep(t, coord.base, submitSweep(t, coord.base, cfgs), time.Minute)
	if rerun.Failed != 0 {
		t.Fatalf("rerun failed %d points", rerun.Failed)
	}
	if after := transfers(); after != moved {
		t.Errorf("rerun moved %v extra trace copies, want 0", after-moved)
	}
	if served := scrapeCounter(t, coord.base, "hbserved_trace_fetches_served_total"); served > 2 {
		t.Errorf("coordinator served %v trace fetches, want at most one per worker", served)
	}
}

// TestClusterE2ELateJoinAndDrain covers dynamic membership end to end:
// a coordinator born with no workers accepts a sweep anyway, a worker
// that self-registers picks the shards up without a coordinator
// restart, and a SIGTERM on the worker drains gracefully — deregister
// first, so the coordinator's readiness drops below quorum the moment
// the worker leaves, and the worker exits cleanly.
func TestClusterE2ELateJoinAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}
	bin := binary(t)

	coordAddr := freePort(t)
	coordURL := "http://" + coordAddr
	coord := startProc(t, bin,
		"-addr", coordAddr,
		"-role", "coordinator",
		"-lease-ttl", "2s",
		"-hedge-after", "-1s",
	)

	// Workerless: alive but not ready.
	if code, rd := getReadyz(t, coord.base); code != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("workerless coordinator readyz = %d %+v, want 503 below quorum", code, rd)
	}

	// The sweep is accepted before any worker exists; its points wait
	// out the join grace.
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = e2eConfig(i+400, 20000)
	}
	id := submitSweep(t, coord.base, cfgs)

	w1 := startProc(t, bin,
		"-addr", "127.0.0.1:0", "-j", "2",
		"-store", "remote", "-store-url", coordURL,
		"-register", coordURL,
	)

	res := awaitSweep(t, coord.base, id, 2*time.Minute)
	if res.Failed != 0 {
		t.Fatalf("late-join sweep failed %d/%d points", res.Failed, res.Total)
	}
	code, rd := getReadyz(t, coord.base)
	if code != http.StatusOK || rd.Cluster == nil || rd.Cluster.Registered != 1 {
		t.Fatalf("readyz after join = %d %+v, want ready with 1 registered worker", code, rd.Cluster)
	}
	lease := false
	for _, w := range rd.Cluster.Workers {
		if w.URL == w1.base && w.Registered && w.LeaseAgeMs >= 0 {
			lease = true
		}
	}
	if !lease {
		t.Errorf("registered worker's lease not visible on readyz: %+v", rd.Cluster.Workers)
	}

	// Graceful drain: SIGTERM deregisters before the worker exits, and
	// the coordinator notices immediately — no lease timeout involved.
	if err := w1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := w1.cmd.Wait(); err != nil {
		t.Fatalf("worker did not exit cleanly on SIGTERM: %v (stderr: %s)", err, w1.stderr.String())
	}
	if !strings.Contains(w1.stderr.String(), "deregistered from") {
		t.Errorf("worker drain did not deregister; stderr: %s", w1.stderr.String())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, rd := getReadyz(t, coord.base)
		if code == http.StatusServiceUnavailable && !rd.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator still ready after its only worker drained: %d %+v", code, rd)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
