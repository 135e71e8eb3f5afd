package service

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/fault"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// metricValue returns the value of the unlabeled sample name in a
// Prometheus text body, failing the test when the family is absent.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("metrics missing %s:\n%s", name, body)
	return 0
}

// TestMetricsQuarantineAndPrewarmFamilies checks the families fed by
// the process-wide quarantine counters and the runner's prewarm cache:
// a quarantined checkpoint and trace show up in their counters, and a
// three-job same-stream Run over two cache geometries shows one prefix
// miss, two prefix hits, two warm fills and one warm apply, and one
// stream tape recorded by the first hit and read by both hits.
func TestMetricsQuarantineAndPrewarmFamilies(t *testing.T) {
	dir := t.TempDir()
	badSnap := filepath.Join(dir, "bad.json")
	badTrace := filepath.Join(dir, "bad.hbtrace")
	for _, p := range []string{badSnap, badTrace} {
		if err := os.WriteFile(p, []byte("not what it claims"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.ReadSnapshot(badSnap, nil); err == nil {
		t.Fatal("corrupt snapshot read cleanly")
	}
	if _, err := workload.OpenTraceFile(badTrace); err == nil {
		t.Fatal("corrupt trace opened cleanly")
	}

	r, err := runner.New(runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []sim.Config
	for _, org := range []struct {
		size  int
		ports mem.PortConfig
	}{
		{16 << 10, mem.PortConfig{Kind: mem.DuplicatePorts}},
		{32 << 10, mem.PortConfig{Kind: mem.DuplicatePorts}},
		{16 << 10, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}},
	} {
		cfgs = append(cfgs, sim.Config{
			Benchmark: "gcc", Seed: 1, CPU: cpu.DefaultConfig(),
			Memory:       mem.DefaultSRAMSystem(org.size, 1, org.ports, false),
			PrewarmInsts: 5_000, WarmupInsts: 500, MeasureInsts: 1_000,
		})
	}
	if _, err := r.Run(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	svc := New(r, Options{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		_ = svc.Shutdown(context.Background())
		ts.Close()
	})

	m := fetchMetrics(t, ts)
	for name, want := range map[string]float64{
		"hbserved_snapshot_quarantined_total": float64(sim.SnapshotsQuarantined()),
		"hbserved_traces_quarantined_total":   float64(workload.TracesQuarantined()),
	} {
		if got := metricValue(t, m, name); got < 1 || got > want {
			t.Errorf("%s = %v, want in [1, %v]", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		"hbserved_runner_prewarm_hits_total":         2,
		"hbserved_runner_prewarm_misses_total":       1,
		"hbserved_runner_prewarm_warm_fills_total":   2,
		"hbserved_runner_prewarm_warm_applies_total": 1,
		"hbserved_runner_prewarm_tape_fills_total":   1,
		"hbserved_runner_prewarm_tape_reads_total":   2,
	} {
		if got := metricValue(t, m, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestMetricsStoreWriteErrors: a result the cache refuses to store
// (here an injected runner.cache.write error, as a full disk would) still
// completes its job and is counted on /metrics.
func TestMetricsStoreWriteErrors(t *testing.T) {
	rule, err := fault.ParseRule("runner.cache.write:error")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runner.New(runner.Options{Workers: 1, Sim: stubSim, CacheDir: t.TempDir(), Faults: fault.New(1).Add(rule)})
	if err != nil {
		t.Fatal(err)
	}
	jrs, err := r.Run(context.Background(), []sim.Config{testConfig(1), testConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range jrs {
		if jr.Err != nil {
			t.Fatalf("job failed on a store write error: %v", jr.Err)
		}
	}
	svc := New(r, Options{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		_ = svc.Shutdown(context.Background())
		ts.Close()
	})
	if got := metricValue(t, fetchMetrics(t, ts), "hbserved_runner_store_write_errors_total"); got != 2 {
		t.Errorf("hbserved_runner_store_write_errors_total = %v, want 2", got)
	}
}
