package runner

import (
	"path/filepath"
	"testing"

	"hbcache/internal/durable"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// traceAt records a small trace for (bench, seed), writes it to path
// (overwriting whatever held the path before), and returns its digest.
func traceAt(t *testing.T, path, bench string, seed uint64) string {
	t.Helper()
	data, err := workload.RecordTrace(bench, seed, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Digest()
}

// TestKeyTraceDigestNeverAliases is the v4 regression test: two
// different traces occupying the same path at different times must key
// — and therefore cache — differently, while the same recording keys
// identically from any path. Before v4 the key ignored traces entirely,
// so the second upload to a reused path would have served the first
// upload's cached result.
func TestKeyTraceDigestNeverAliases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "workload.trace")
	digestA := traceAt(t, path, "gcc", 1)

	cfg := baseConfig()
	cfg.Trace = &sim.TraceRef{Path: path, Digest: digestA}
	keyA := mustKey(t, cfg)

	// A different recording lands on the very same path.
	digestB := traceAt(t, path, "gcc", 2)
	if digestA == digestB {
		t.Fatal("distinct recordings share a digest")
	}
	cfgB := baseConfig()
	cfgB.Trace = &sim.TraceRef{Path: path, Digest: digestB}
	keyB := mustKey(t, cfgB)
	if keyA == keyB {
		t.Fatal("different traces at the same path alias one cache key")
	}

	// Pin it end-to-end at the cache layer: a result stored for trace A
	// must be invisible to trace B's lookup.
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(keyA, cfg, sim.Result{Benchmark: "gcc", Cycles: 123}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(keyB); ok {
		t.Fatal("trace B's key hit trace A's cached result")
	}
	if _, ok := cache.Get(keyA); !ok {
		t.Fatal("trace A's own result did not round-trip")
	}
}

// TestKeyTraceLocationIndependent pins the flip side: the same
// recording referenced from two different paths (local submit vs a
// worker's fetched copy) is one simulation and must share one key.
func TestKeyTraceLocationIndependent(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.trace")
	pathB := filepath.Join(dir, "b", "copied.trace")
	digest := traceAt(t, pathA, "li", 7)
	if got := traceAt(t, pathB, "li", 7); got != digest {
		t.Fatal("same recording produced different digests")
	}

	cfgA, cfgB := baseConfig(), baseConfig()
	cfgA.Trace = &sim.TraceRef{Path: pathA, Digest: digest}
	cfgB.Trace = &sim.TraceRef{Path: pathB, Digest: digest}
	if mustKey(t, cfgA) != mustKey(t, cfgB) {
		t.Fatal("same trace digest keyed differently across paths")
	}

	// And a trace-backed config never collides with the synthetic
	// config it was recorded from.
	if mustKey(t, cfgA) == mustKey(t, baseConfig()) {
		t.Fatal("trace-backed config aliases its synthetic origin")
	}
}

// TestKeyRejectsUnresolvedTraceRef: keying a path-only ref would let
// whatever bytes later occupy the path impersonate a cached result, so
// Key refuses until a boundary resolves the digest.
func TestKeyRejectsUnresolvedTraceRef(t *testing.T) {
	cfg := baseConfig()
	cfg.Trace = &sim.TraceRef{Path: "/tmp/somewhere.trace"}
	if _, err := Key(cfg); err == nil {
		t.Fatal("Key accepted a trace ref with no digest")
	}
}
