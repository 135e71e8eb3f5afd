package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runs maps workload -> metric -> values, in file order.
type runs map[string]map[string][]float64

// readRuns parses a run file: one line per run, the workload name, a
// space, and the run's result line.
func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		name, js, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s:%d: want \"<workload> <result json>\"", path, n)
		}
		var r result
		if err := json.Unmarshal([]byte(js), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s failed its output checks", path, n, name)
		}
		if out[name] == nil {
			out[name] = map[string][]float64{}
		}
		for m, v := range r.Metrics {
			out[name][m] = append(out[name][m], v.Value)
		}
	}
	return out, sc.Err()
}

// compareMain applies the paired-run rule to two run files whose i-th
// runs of each workload were made back to back, alternating which side
// ran first. For each workload and end-to-end metric it prints both
// sides' median and quartiles, the change's win rate over the pairs,
// and a verdict: "gain" (wins at least 9 in 10 pairs and the medians
// differ by more than the parent's quartile spread), "regressed" (median
// worse than the parent's by more than the bound), "unresolved" (the
// parent's own spread exceeds the bound, unless every change run beats
// every parent run), else "same".
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hbbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: hbbench compare [-bench BENCHMARK.json] PARENT_RUNS CHANGE_RUNS")
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	parent, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for n := range parent {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-17s %5s %28s %28s %8s %6s %5s  %s\n",
		"workload", "metric", "pairs", "parent median [q1,q3]", "change median [q1,q3]", "delta", "bound", "wins", "verdict")
	bad := 0
	for _, n := range names {
		for _, m := range spec.EndToEnd {
			p, c := parent[n][m.Name], change[n][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, row := verdict(p, c, m.Better == "higher", m.Bound, m.Name == "setup_s")
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-17s %s  %s\n", n, m.Name, row, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) regressed or unresolved", bad)
	}
	return nil
}

// verdict compares one metric's paired runs. setup metrics are exempt
// from the spread rule, as in the benchmark's own acceptance check.
func verdict(p, c []float64, higher bool, bound float64, exemptSpread bool) (string, string) {
	pairs := min(len(p), len(c))
	pq1, pm, pq3 := quartiles(p)
	cq1, cm, cq3 := quartiles(c)
	better := func(a, b float64) bool { return (higher && a > b) || (!higher && a < b) }
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	delta := (cm - pm) / pm
	worse := -delta
	if !higher {
		worse = delta
	}
	spread := (pq3 - pq1) / pm
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	row := fmt.Sprintf("%5d %10.4g [%6.4g,%6.4g] %10.4g [%6.4g,%6.4g] %+7.2f%% %5.0f%% %2d/%-2d",
		pairs, pm, pq1, pq3, cm, cq1, cq3, 100*delta, 100*bound, wins, pairs)
	switch {
	case !exemptSpread && spread > bound && !allBetter:
		return "unresolved", row
	case worse > bound:
		return "regressed", row
	case float64(wins) >= 0.9*float64(pairs) && math.Abs(cm-pm) > pq3-pq1 && better(cm, pm):
		return "gain", row
	}
	return "same", row
}
