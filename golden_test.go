//go:build !race

package hbcache_test

// Golden-output corpus: SHA-256 digests of what the simulator produces
// for a fixed set of inputs, committed under testdata/golden/. Any
// change to simulation semantics — a different stat, a different
// retired stream, a reordered table row — changes a digest here, so
// refactors of the kernel are proven behavior-preserving rather than
// argued. Three corpora:
//
//   - tables.sha256: every experiments.All() table's CSV at the
//     hbfigures -quick windows, through one shared two-worker runner.
//   - hbsweep.sha256: one fixed-flag hbsweep CSV at small windows,
//     batched, so the lockstep kernel's shared streams are covered.
//   - results.sha256: the canonical JSON of sim.Result under
//     RunOpts{Hash: true} for every config the sim package's batch,
//     resume, trace, timing-prewarm, prewarm-cache and sampled
//     identity suites run. Each line is "<result> <config> <label>",
//     the config digest being that of the resolved config's JSON, so
//     the suites look their reference up by label and can tell a
//     drifted config from a drifted result.
//
// Regenerate (only for a deliberate semantics change, stated in
// CHANGES.md) with: go test -run TestGolden -update .
// The corpus is skipped under -short and the race detector: it runs
// a full quick figure pass.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/experiments"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

const goldenDir = "testdata/golden"

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares got (label -> line payload) with the corpus
// file, or rewrites the file under -update.
func checkGolden(t *testing.T, file string, got map[string]string) {
	t.Helper()
	path := filepath.Join(goldenDir, file)
	labels := make([]string, 0, len(got))
	for l := range got {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	if *update {
		var sb strings.Builder
		for _, l := range labels {
			fmt.Fprintf(&sb, "%s  %s\n", got[l], l)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestGolden -update .)", err)
	}
	for _, l := range labels {
		if w, ok := want[l]; !ok {
			t.Errorf("%s: %s not in the corpus", file, l)
		} else if w != got[l] {
			t.Errorf("%s: %s digest %s, corpus has %s", file, l, got[l], w)
		}
	}
	for l := range want {
		if _, ok := got[l]; !ok {
			t.Errorf("%s: corpus entry %s was not regenerated", file, l)
		}
	}
}

// readGolden parses a corpus file: the label is the last field, the
// payload everything before it.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		i := strings.LastIndex(line, "  ")
		if i < 0 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[line[i+2:]] = line[:i]
	}
	return out, sc.Err()
}

func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the golden corpus runs a full quick figure pass")
	}
	t.Run("tables", goldenTables)
	t.Run("hbsweep", goldenSweep)
	t.Run("results", goldenResults)
}

// goldenTables digests every paper table at the hbfigures -quick
// windows.
func goldenTables(t *testing.T) {
	r, err := runner.New(runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.Options{Seed: 1, Runner: r, PrewarmInsts: 300_000, WarmupInsts: 10_000, MeasureInsts: 60_000}
	got := map[string]string{}
	for _, e := range experiments.All() {
		tb, err := e.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		got[e.Name+".csv"] = digest([]byte(tb.CSV()))
	}
	checkGolden(t, "tables.sha256", got)
}

// goldenSweepArgs is the fixed hbsweep invocation: two benchmarks, two
// sizes, two hit times, two organizations, both line-buffer settings —
// 32 points at small windows, four lockstep lanes per worker.
var goldenSweepArgs = []string{
	"-bench", "gcc,tomcatv", "-sizes", "8K,32K", "-hits", "1,2",
	"-ports", "duplicate,banked8", "-lb", "both",
	"-prewarm", "10000", "-warmup", "1000", "-insts", "5000",
	"-j", "2", "-batch", "4",
}

func goldenSweep(t *testing.T) {
	out, err := exec.Command("go", append([]string{"run", "./cmd/hbsweep"}, goldenSweepArgs...)...).Output()
	if err != nil {
		t.Fatalf("hbsweep: %v", err)
	}
	checkGolden(t, "hbsweep.sha256", map[string]string{"hbsweep.csv": digest(out)})
}

// goldenCase is one corpus config under its label.
type goldenCase struct {
	label string
	cfg   sim.Config
}

// The config builders below mirror the sim package's identity-suite
// helpers (batchTestConfig, resumeConfig, prewarmCacheConfig,
// sampleConfig); the config digest in each corpus line catches drift
// between the two.

func goldenConfig(bench string, seed uint64, memory mem.SystemConfig, prewarm, warmup, measure uint64) sim.Config {
	return sim.Config{
		Benchmark:    bench,
		Seed:         seed,
		CPU:          cpu.DefaultConfig(),
		Memory:       memory,
		PrewarmInsts: prewarm,
		WarmupInsts:  warmup,
		MeasureInsts: measure,
	}
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(label string, cfg sim.Config) { cases = append(cases, goldenCase{label, cfg}) }

	// Batch suite: every workload on three 32K organizations, plus
	// timed prewarm and a sampled lane.
	batchOrgs := []mem.SystemConfig{
		mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
	}
	for _, bench := range workload.BenchmarkNames() {
		for i, org := range batchOrgs {
			add(fmt.Sprintf("batch/%s/%d", bench, i), goldenConfig(bench, 1, org, 30_000, 2_000, 10_000))
		}
	}
	for i, org := range batchOrgs {
		cfg := goldenConfig("gcc", 1, org, 8_000, 2_000, 10_000)
		cfg.PrewarmMode = sim.PrewarmTiming
		add(fmt.Sprintf("batch-timing/gcc/%d", i), cfg)
	}
	sampled := goldenConfig("gcc", 1, batchOrgs[0], 30_000, 2_000, 60_000)
	sampled.Sample = &sim.SampleSpec{IntervalInsts: 20_000, WindowInsts: 4_000, WarmupInsts: 1_000}
	add("batch-sampled/gcc", sampled)

	// Resume and trace suites: every workload on three organizations
	// at the resume windows, plus the timed-prewarm and sampled replays.
	resumeOrgs := []struct {
		name  string
		ports mem.PortConfig
		lb    bool
	}{
		{"ideal", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false},
		{"banked", mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false},
		{"linebuffer", mem.PortConfig{Kind: mem.DuplicatePorts}, true},
	}
	resume := func(bench string, ports mem.PortConfig, lb bool) sim.Config {
		return goldenConfig(bench, 1, mem.DefaultSRAMSystem(32<<10, 1, ports, lb), 100_000, 5_000, 40_000)
	}
	for _, org := range resumeOrgs {
		for _, bench := range workload.BenchmarkNames() {
			add("resume/"+org.name+"/"+bench, resume(bench, org.ports, org.lb))
		}
	}
	timing := resume("gcc", mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false)
	timing.PrewarmMode = sim.PrewarmTiming
	add("trace-timing/gcc", timing)
	traceSampled := resume("tomcatv", mem.PortConfig{Kind: mem.DuplicatePorts}, true)
	traceSampled.Sample = &sim.SampleSpec{IntervalInsts: 10_000, WindowInsts: 2_000, WarmupInsts: 500}
	add("trace-sampled/tomcatv", traceSampled)

	// Prewarm-cache suite: fast-forward runs on three geometries, one
	// sampled.
	for _, bench := range workload.BenchmarkNames() {
		pc := func(size int, ports mem.PortConfig, lb bool) sim.Config {
			return goldenConfig(bench, 5, mem.DefaultSRAMSystem(size, 1, ports, lb), 30_000, 2_000, 6_000)
		}
		add("prewarm-cache/"+bench+"/0", pc(16<<10, mem.PortConfig{Kind: mem.DuplicatePorts}, true))
		add("prewarm-cache/"+bench+"/1", pc(64<<10, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false))
		s := pc(32<<10, mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false)
		s.Sample = &sim.SampleSpec{IntervalInsts: 3_000, WindowInsts: 500, WarmupInsts: 500}
		add("prewarm-cache/"+bench+"/sampled", s)
	}

	// Sampling suite at the default windows: the deterministic plan and
	// the timed tail interval.
	base := goldenConfig("gcc", 1, mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true), 0, 0, 0)
	det := base
	det.Sample = &sim.SampleSpec{IntervalInsts: 24_000, WindowInsts: 1_500, WarmupInsts: 500}
	add("sampled/gcc", det)
	tail := det
	tail.MeasureInsts = 25_000
	add("sampled-tail/gcc", tail)
	return cases
}

func goldenResults(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases() {
		res, err := sim.RunContext(context.Background(), c.cfg, sim.RunOpts{Hash: true})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		rb, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := json.Marshal(c.cfg.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		got[c.label] = digest(rb) + " " + digest(cb)
	}
	checkGolden(t, "results.sha256", got)
}
