package main

import (
	"bytes"
	"context"
	"io"
	"slices"
	"strings"
	"testing"

	"hbcache/internal/fo4"
	"hbcache/internal/mem"
)

// testSpec is a small but non-trivial sweep: two benchmarks, two sizes,
// two hit times — eight points, enough to exercise worker scheduling.
func testSpec() sweepSpec {
	return sweepSpec{
		benches: []string{"gcc", "tomcatv"},
		sizes:   []int{8 << 10, 32 << 10},
		hits:    []int{1, 2},
		ports:   []mem.PortConfig{{Kind: mem.DuplicatePorts}},
		lbs:     []bool{true},
		cycle:   25,
		seed:    1,
		prewarm: 10_000,
		warmup:  1_000,
		insts:   5_000,
		workers: 1,
	}
}

func sweepCSV(t *testing.T, spec sweepSpec) string {
	t.Helper()
	var out bytes.Buffer
	if _, err := runSweep(context.Background(), &out, io.Discard, spec); err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	return out.String()
}

// TestSweepDeterministicAcrossWorkers is the determinism regression
// test: the same sweep must produce byte-identical CSV at -j 1 and -j 8.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec()
	spec.workers = 1
	serial := sweepCSV(t, spec)
	spec.workers = 8
	parallel := sweepCSV(t, spec)
	if serial != parallel {
		t.Errorf("CSV differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s", serial, parallel)
	}
	if n := strings.Count(serial, "\n"); n != 1+8 {
		t.Errorf("expected header + 8 rows, got %d lines:\n%s", n, serial)
	}
}

// TestSweepCacheResume runs the same sweep twice against one -cache-dir:
// the second run must be satisfied entirely from the cache and still
// emit identical CSV.
func TestSweepCacheResume(t *testing.T) {
	spec := testSpec()
	spec.workers = 4
	spec.cacheDir = t.TempDir()

	var out1 bytes.Buffer
	m1, err := runSweep(context.Background(), &out1, io.Discard, spec)
	if err != nil {
		t.Fatalf("first runSweep: %v", err)
	}
	if m1.Simulated != 8 || m1.CacheHits != 0 {
		t.Errorf("first run: Simulated = %d, CacheHits = %d, want 8, 0", m1.Simulated, m1.CacheHits)
	}

	var out2 bytes.Buffer
	m2, err := runSweep(context.Background(), &out2, io.Discard, spec)
	if err != nil {
		t.Fatalf("second runSweep: %v", err)
	}
	if m2.CacheHits != 8 || m2.Simulated != 0 {
		t.Errorf("second run: CacheHits = %d, Simulated = %d, want 8, 0", m2.CacheHits, m2.Simulated)
	}
	if out1.String() != out2.String() {
		t.Errorf("cached run CSV differs from simulated run:\nfirst:\n%s\nsecond:\n%s", out1.String(), out2.String())
	}
}

func TestParsePorts(t *testing.T) {
	cases := map[string]mem.PortConfig{
		"duplicate": {Kind: mem.DuplicatePorts},
		"ideal2":    {Kind: mem.IdealPorts, Count: 2},
		"ideal4":    {Kind: mem.IdealPorts, Count: 4},
		"banked8":   {Kind: mem.BankedPorts, Count: 8},
		"banked128": {Kind: mem.BankedPorts, Count: 128},
	}
	for in, want := range cases {
		got, err := parsePorts(in)
		if err != nil {
			t.Errorf("parsePorts(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parsePorts(%q) = %+v, want %+v", in, got, want)
		}
		if portName(got) != in {
			t.Errorf("portName(%+v) = %q, want round trip to %q", got, portName(got), in)
		}
	}
	for _, bad := range []string{"", "idealx", "banked", "triple", "ideal0"} {
		if _, err := parsePorts(bad); err == nil {
			t.Errorf("parsePorts(%q) should fail", bad)
		}
	}
}

func TestParseLB(t *testing.T) {
	if v, err := parseLB("both"); err != nil || len(v) != 2 {
		t.Errorf("parseLB(both) = %v, %v", v, err)
	}
	if v, err := parseLB("on"); err != nil || len(v) != 1 || !v[0] {
		t.Errorf("parseLB(on) = %v, %v", v, err)
	}
	if _, err := parseLB("maybe"); err == nil {
		t.Error("parseLB(maybe) should fail")
	}
}

func TestParseBenches(t *testing.T) {
	all, err := parseBenches("all")
	if err != nil || len(all) != 9 {
		t.Errorf("parseBenches(all) = %d, %v", len(all), err)
	}
	for _, in := range []string{"gcc,tomcatv", "gcc, tomcatv", " gcc ,tomcatv "} {
		two, err := parseBenches(in)
		if err != nil || !slices.Equal(two, []string{"gcc", "tomcatv"}) {
			t.Errorf("parseBenches(%q) = %q, %v", in, two, err)
		}
	}
	if _, err := parseBenches("gcc,nope"); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestParseListSizes(t *testing.T) {
	got, err := parseList("8K, 32K,1M", fo4.ParseSize)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8 << 10, 32 << 10, 1 << 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sizes[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if _, err := parseList("8K,huh", fo4.ParseSize); err == nil {
		t.Error("bad size should fail")
	}
}
