package runner

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
)

func baseConfig() sim.Config {
	return sim.Config{
		Benchmark:    "gcc",
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		PrewarmInsts: 1000,
		WarmupInsts:  100,
		MeasureInsts: 2000,
	}
}

func mustKey(t *testing.T, cfg sim.Config) string {
	t.Helper()
	k, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyIdenticalConfigsHit(t *testing.T) {
	a, b := baseConfig(), baseConfig()
	if mustKey(t, a) != mustKey(t, b) {
		t.Error("identical configs produced different keys")
	}
	// Pointer identity must not matter, only pointed-to values.
	l2 := mem.DefaultL2Config(10)
	a.Memory.L2, b.Memory.L2 = &l2, func() *mem.L2Config { c := mem.DefaultL2Config(10); return &c }()
	if mustKey(t, a) != mustKey(t, b) {
		t.Error("equal L2 configs behind distinct pointers produced different keys")
	}
}

func TestKeyCanonicalizesDefaultWindows(t *testing.T) {
	implicit := baseConfig()
	implicit.PrewarmInsts, implicit.WarmupInsts, implicit.MeasureInsts = 0, 0, 0
	explicit := baseConfig()
	explicit.PrewarmInsts = sim.DefaultPrewarm
	explicit.WarmupInsts = sim.DefaultWarmup
	explicit.MeasureInsts = sim.DefaultMeasure
	if mustKey(t, implicit) != mustKey(t, explicit) {
		t.Error("zero windows and explicit defaults simulate identically but keyed differently")
	}
}

// TestKeyFieldSensitivity mutates one behavior-relevant field at a time
// and requires every variant to land on a distinct key.
func TestKeyFieldSensitivity(t *testing.T) {
	variants := map[string]func(*sim.Config){
		"benchmark":   func(c *sim.Config) { c.Benchmark = "tomcatv" },
		"seed":        func(c *sim.Config) { c.Seed = 2 },
		"prewarm":     func(c *sim.Config) { c.PrewarmInsts = 5000 },
		"warmup":      func(c *sim.Config) { c.WarmupInsts = 500 },
		"measure":     func(c *sim.Config) { c.MeasureInsts = 9000 },
		"fetch width": func(c *sim.Config) { c.CPU.FetchWidth = 8 },
		"window size": func(c *sim.Config) { c.CPU.WindowSize = 128 },
		"gshare":      func(c *sim.Config) { c.CPU.Gshare = true; c.CPU.GshareHistoryBits = 9 },
		"fu limits":   func(c *sim.Config) { c.CPU.FULimits = &cpu.FULimits{Int: 2, FP: 2, Mem: 1} },
		"l1 bytes":    func(c *sim.Config) { c.Memory.L1.Bytes = 64 << 10 },
		"l1 hit":      func(c *sim.Config) { c.Memory.L1.HitCycles = 3 },
		"l1 assoc":    func(c *sim.Config) { c.Memory.L1.Assoc = 4 },
		"ports kind":  func(c *sim.Config) { c.Memory.L1.Ports = mem.PortConfig{Kind: mem.BankedPorts, Count: 8} },
		"ports count": func(c *sim.Config) { c.Memory.L1.Ports = mem.PortConfig{Kind: mem.IdealPorts, Count: 2} },
		"interleave": func(c *sim.Config) {
			c.Memory.L1.Ports = mem.PortConfig{Kind: mem.BankedPorts, Count: 8, InterleaveBytes: 8}
		},
		"mshrs":        func(c *sim.Config) { c.Memory.L1.MSHRs = 8 },
		"write policy": func(c *sim.Config) { c.Memory.L1.Policy = mem.WriteThrough },
		"sectoring":    func(c *sim.Config) { c.Memory.L1.SectorBytes = 32 },
		"victim cache": func(c *sim.Config) { c.Memory.L1.VictimCache = true },
		"line buffer":  func(c *sim.Config) { c.Memory.L1.LineBuffer = false },
		"lb entries":   func(c *sim.Config) { c.Memory.L1.LineBufferEntries = 64 },
		"no l2":        func(c *sim.Config) { c.Memory.L2 = nil },
		"l2 hit":       func(c *sim.Config) { l2 := mem.DefaultL2Config(20); c.Memory.L2 = &l2 },
		"dram":         func(c *sim.Config) { d := mem.DefaultDRAMConfig(6); c.Memory.DRAM = &d },
		"mem latency":  func(c *sim.Config) { c.Memory.MemoryLatencyCycles = 120 },
		"cycle ns":     func(c *sim.Config) { c.Memory.CycleNs = 2.5 },
		"chip bus":     func(c *sim.Config) { c.Memory.ChipBusGBs = 5 },
		"mem bus":      func(c *sim.Config) { c.Memory.MemBusGBs = 3.2 },
		"scaled system": func(c *sim.Config) {
			c.Memory = sim.ScaledSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true, 15)
		},
	}
	seen := map[string]string{mustKey(t, baseConfig()): "base"}
	for name, mutate := range variants {
		cfg := baseConfig()
		mutate(&cfg)
		k := mustKey(t, cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

func TestCachePutGetRoundTrip(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	key := mustKey(t, cfg)
	want := sim.Result{Benchmark: "gcc", Cycles: 1234, Instructions: 1000, IPC: 0.81, MissesPerInst: 0.02}

	if _, ok := c.Get(key); ok {
		t.Fatal("Get on empty cache reported a hit")
	}
	if err := c.Put(key, cfg, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Get missed immediately after Put")
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1", n, err)
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	key := mustKey(t, cfg)
	if err := c.Put(key, cfg, sim.Result{IPC: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("corrupt entry reported as a hit")
	}

	// An entry whose embedded key disagrees with its filename (e.g. a
	// file copied between cache dirs built with different key versions)
	// is also a miss.
	other := baseConfig()
	other.Seed = 99
	otherKey := mustKey(t, other)
	if err := c.Put(otherKey, other, sim.Result{IPC: 2}); err != nil {
		t.Fatal(err)
	}
	stolen, err := os.ReadFile(filepath.Join(dir, otherKey[:2], otherKey+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stolen, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("entry with mismatched key reported as a hit")
	}
}

// TestCacheLegacyEntryIsMiss: an entry in the format written before
// entries were sealed records — indented StoreEntry JSON with its own
// Sum field — is a plain miss, not corruption: nothing is quarantined,
// Keys does not list it, and the next Put replaces it.
func TestCacheLegacyEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	key := mustKey(t, cfg)
	legacy, err := json.MarshalIndent(struct {
		Key    string
		Config sim.Config
		Result sim.Result
		Sum    string
	}{key, cfg, sim.Result{IPC: 1}, "6c0bd4b5d1b6e2cbb1d9b7c2e08a4e4f4ae1bd0c5f32d7c0e6c4ea10d5b7f0a1"}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(legacy, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("legacy entry reported as a hit")
	}
	if n := c.CorruptEntries(); n != 0 {
		t.Errorf("CorruptEntries = %d, want 0 (a legacy entry is not corrupt)", n)
	}
	if keys, err := c.Keys(); err != nil || len(keys) != 0 {
		t.Errorf("Keys = %v (%v), want none", keys, err)
	}
	if _, err := os.Stat(path + ".corrupt"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("legacy entry quarantined: %v", err)
	}
	if err := c.Put(key, cfg, sim.Result{IPC: 2}); err != nil {
		t.Fatal(err)
	}
	if res, ok := c.Get(key); !ok || res.IPC != 2 {
		t.Errorf("Get after Put = %+v, %v; want IPC 2, true", res, ok)
	}
}

// TestCachePutAtomic is the regression test for atomic disk writes: a
// process killed mid-Put must never leave a torn entry where Get (or a
// resumed sweep) will find it. Put stages into a temp file and renames,
// so the visible path either has the old complete content or the new
// complete content, and staging files are invisible to Get and Len.
func TestCachePutAtomic(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	key := mustKey(t, cfg)

	// Simulate a crash mid-write: a staging file exists but the rename
	// never happened. Build it the same way Put does.
	if err := os.MkdirAll(filepath.Dir(c.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	torn, err := os.CreateTemp(filepath.Dir(c.path(key)), key+".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.WriteString(`{"Key":"` + key + `","Result":{"ipc":9`); err != nil {
		t.Fatal(err)
	}
	if err := torn.Close(); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(key); ok {
		t.Fatal("torn staging file visible as a cache hit")
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Fatalf("Len = %d, %v; torn staging file must not count as an entry", n, err)
	}

	// A subsequent Put of the same key succeeds and is complete.
	want := sim.Result{Benchmark: "gcc", IPC: 1.5}
	if err := c.Put(key, cfg, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || got != want {
		t.Fatalf("Get after recovery = %+v, %v; want %+v, true", got, ok, want)
	}

	// Put leaves no staging litter of its own behind.
	entries, err := os.ReadDir(filepath.Dir(c.path(key)))
	if err != nil {
		t.Fatal(err)
	}
	tmps := 0
	for _, e := range entries {
		if e.Name() != key+".json" && e.Name() != filepath.Base(torn.Name()) {
			tmps++
		}
	}
	if tmps != 0 {
		t.Errorf("Put left %d unexpected staging files behind", tmps)
	}

	// Overwriting an existing entry is also atomic: the key stays
	// readable with one of the two complete values throughout.
	if err := c.Put(key, cfg, sim.Result{Benchmark: "gcc", IPC: 2.5}); err != nil {
		t.Fatal(err)
	}
	got, ok = c.Get(key)
	if !ok || got.IPC != 2.5 {
		t.Errorf("Get after overwrite = %+v, %v; want IPC 2.5, true", got, ok)
	}
}

// TestCacheEntryStableJSON pins the on-disk encoding: an entry is one
// line of compact JSON holding the snake_case wire format of
// sim.Result, so external tooling can read cache files without
// importing this module.
func TestCacheEntryStableJSON(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	key := mustKey(t, cfg)
	if err := c.Put(key, cfg, sim.Result{Benchmark: "gcc", IPC: 1.25, MissesPerInst: 0.5}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != 1 || raw[len(raw)-1] != '\n' {
		t.Errorf("cache entry spans %d lines, want one:\n%s", n, raw)
	}
	for _, want := range []string{`"ipc":1.25`, `"misses_per_inst":0.5`, `"benchmark":"gcc"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("cache entry missing %s:\n%s", want, raw)
		}
	}
}
