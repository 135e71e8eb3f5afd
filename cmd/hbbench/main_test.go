package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hbcache/internal/sim"
)

// smokeScale shrinks every workload to a few seconds; the golden file
// carries seed-1 digests at this scale as well as at scale 1.
const smokeScale = "0.02"

type benchJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchJSON(t *testing.T) benchJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runBench runs hbbench in-process and decodes its last output line.
func runBench(t *testing.T, args ...string) (*result, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), time.Now(), append([]string{"-root", "../..", "-seconds", "1", "-scale", smokeScale}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("hbbench %v: no result line (err %v)\nstdout: %s\nstderr: %s", args, err, stdout.String(), stderr.String())
	}
	return &res, stderr.String(), err
}

func checkNames(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
}

// TestSmoke runs every declared workload at a tiny scale: every
// end-to-end metric appears with its unit, nothing fails, and the
// seed-1 outputs match the golden digests.
func TestSmoke(t *testing.T) {
	spec := readBenchJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, hbbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, log, err := runBench(t, "-workload", w.Name)
			if err != nil || !res.Correct || res.Failed != 0 {
				t.Fatalf("err %v, correct %v, %d/%d failed\n%s", err, res.Correct, res.Failed, res.Attempted, log)
			}
			if !strings.Contains(log, "golden match") {
				t.Errorf("seed 1 did not match its golden digest:\n%s", log)
			}
			checkNames(t, res.Metrics, spec.EndToEnd)
		})
	}
}

// TestFlippedGoldenFails pins that the digest check can fail: a golden
// file with one digest altered makes the run incorrect and non-zero.
func TestFlippedGoldenFails(t *testing.T) {
	b, err := os.ReadFile("testdata/golden-seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	key := goldenKey("sweep-b16", 0.02)
	d := []byte(g[key])
	if len(d) == 0 {
		t.Fatalf("golden file has no %s entry", key)
	}
	d[0] ^= 1
	g[key] = string(d)
	path := filepath.Join(t.TempDir(), "golden.json")
	b, _ = json.Marshal(g)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	res, _, err := runBench(t, "-workload", "sweep-b16", "-golden", path)
	if !errors.Is(err, errIncorrect) || res.Correct || res.Failed == 0 {
		t.Fatalf("flipped digest: err %v, correct %v, failed %d; want an incorrect run", err, res.Correct, res.Failed)
	}
}

// TestTracedRun checks the traced run emits every per-layer metric and
// writes a span tree whose children never cover more than their parent.
func TestTracedRun(t *testing.T) {
	spec := readBenchJSON(t)
	out := filepath.Join(t.TempDir(), "spans.json")
	res, log, err := runBench(t, "-workload", "sweep-b16", "-trace", "1", "-trace-out", out)
	if err != nil || !res.Correct {
		t.Fatalf("traced run: err %v, correct %v\n%s", err, res.Correct, log)
	}
	checkNames(t, res.Metrics, spec.PerLayer)
	for _, l := range layers {
		if v := res.Metrics[l+".self_ms"].Value; v < 0 {
			t.Errorf("%s self time %v < 0", l, v)
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []spanRec `json:"spans"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("no spans written")
	}
	if err := checkSpans(tf.Spans); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSpansRejectsOvercover(t *testing.T) {
	recs := []spanRec{
		{ID: 1, Op: 1, Layer: "a", Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: 1, Layer: "b", Start: 2, End: 12},
	}
	if checkSpans(recs) == nil {
		t.Fatal("a child ending after its parent passed the check")
	}
	recs[1].End = 8
	if err := checkSpans(recs); err != nil {
		t.Fatal(err)
	}
	if self := selfTimes(recs); self["a"] != 4 || self["b"] != 6 {
		t.Fatalf("self times %v, want a=4ns (10 less its 6ns child) and b=6ns", self)
	}
}

// TestQuartiles pins agreement with Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	p := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		c    []float64
		want string
	}{
		{p, "same"},
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "gain"},
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "regressed"},
	} {
		if got, _ := verdict(p, tc.c, true, 0.05, false); got != tc.want {
			t.Errorf("verdict = %s, want %s", got, tc.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	if got, _ := verdict(wide, wide, true, 0.05, false); got != "unresolved" {
		t.Errorf("wide parent spread: verdict %s, want unresolved", got)
	}
}

// TestServeMixStable pins that a job sequence's prefix does not depend
// on its length (the golden digest covers a prefix) and that no two
// jobs other than resubmits share a config, within or across epochs.
func TestServeMixStable(t *testing.T) {
	ref := sim.TraceRef{Digest: "d"}
	short, _ := serveMix(1, 0, 100, serveWindows, ref)
	long, _ := serveMix(1, 0, serveJobs, serveWindows, ref)
	for i := range short {
		if jsonKey(short[i].cfg) != jsonKey(long[i].cfg) || short[i].class != long[i].class {
			t.Fatalf("job %d differs between a %d- and a %d-job sequence", i, len(short), len(long))
		}
	}
	seen := map[string]int{}
	for ep := 0; ep < 2; ep++ {
		jobs, _ := serveMix(1, ep, serveJobs, serveWindows, ref)
		for i, j := range jobs {
			if j.class == classResubmit {
				continue
			}
			k := jsonKey(j.cfg)
			if prev, ok := seen[k]; ok {
				t.Fatalf("epoch %d job %d repeats job %d's config", ep, i, prev)
			}
			seen[k] = i
		}
	}
}
