package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"

	"hbcache/internal/runner"
	"hbcache/internal/sim"
)

// fixedResult is the projection of sim.Result the output checks compare:
// fields whose meaning is settled, so a Result field added later never
// changes a digest.
type fixedResult struct {
	Cycles            uint64  `json:"cycles"`
	Instructions      uint64  `json:"instructions"`
	IPC               float64 `json:"ipc"`
	MissesPerInst     float64 `json:"misses_per_inst"`
	LineBufferHitRate float64 `json:"line_buffer_hit_rate"`
	BranchAccuracy    float64 `json:"branch_accuracy"`
	MeanLoadLatency   float64 `json:"mean_load_latency"`
}

func project(r sim.Result) []byte {
	b, _ := json.Marshal(fixedResult{r.Cycles, r.Instructions, r.IPC, r.MissesPerInst,
		r.LineBufferHitRate, r.BranchAccuracy, r.MeanLoadLatency})
	return b
}

// point is one simulated design point a workload produced, with the
// config as the benchmark submitted it (trace refs carry the local
// path of the benchmark's own copy, so it can re-simulate them).
type point struct {
	cfg sim.Config
	res sim.Result
}

// digest is the hex SHA-256 over the points' projections, keyed and
// sorted by runner.Key so completion order does not matter, followed
// by extra (table text, for example). Duplicate keys must agree.
func digest(pts []point, extra ...string) (string, error) {
	lines := map[string]string{}
	for _, p := range pts {
		k, err := runner.Key(p.cfg)
		if err != nil {
			return "", err
		}
		l := k + " " + string(project(p.res)) + "\n"
		if old, ok := lines[k]; ok && old != l {
			return "", fmt.Errorf("two results for one config %.12s…: %s vs %s", k, old, l)
		}
		lines[k] = l
	}
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(lines[k]))
	}
	for _, e := range extra {
		h.Write([]byte(e))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// goldenKey names a digest in the golden file: the workload at a scale.
func goldenKey(workload string, scale float64) string {
	return workload + "@" + strconv.FormatFloat(scale, 'g', -1, 64)
}

// checkGolden compares a seed-1 digest with the golden file. It reports
// "none" when the file has no entry for this workload and scale.
func checkGolden(path, key, got string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("reading golden digests: %w", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		return "", fmt.Errorf("parsing %s: %w", path, err)
	}
	w, ok := want[key]
	switch {
	case !ok:
		return "none", nil
	case w == got:
		return "match", nil
	}
	return "mismatch", fmt.Errorf("golden digest mismatch for %s: got %s, want %s", key, got, w)
}

// resimSample re-simulates n points chosen by seed with sim.RunContext
// and counts those whose projection differs from what the workload
// returned.
func resimSample(ctx context.Context, pts []point, n int, seed uint64) (checked, bad int, err error) {
	if len(pts) == 0 {
		return 0, 0, fmt.Errorf("no results to re-simulate")
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e51))
	idx := rng.Perm(len(pts))
	if len(idx) > n {
		idx = idx[:n]
	}
	for _, i := range idx {
		p := pts[i]
		res, err := sim.RunContext(ctx, p.cfg, sim.RunOpts{})
		if err != nil {
			return checked, bad, fmt.Errorf("re-simulating %s: %w", p.cfg.Benchmark, err)
		}
		checked++
		if !bytes.Equal(project(res), project(p.res)) {
			bad++
			fmt.Fprintf(os.Stderr, "hbbench: re-simulated %s differs:\n  workload: %s\n  direct:   %s\n",
				p.cfg.Benchmark, project(p.res), project(res))
		}
	}
	return checked, bad, nil
}
