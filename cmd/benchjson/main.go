// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON record for performance tracking. Every metric
// column is captured generically — ns/op, B/op, allocs/op, and custom
// b.ReportMetric units like insts/sec. Repeated runs of one benchmark
// (from -count=N) are kept as separate samples, and each benchmark's
// summary records every metric's median and quartiles across them.
//
// Usage:
//
//	go test -run '^$' -bench=. -benchmem -count=10 | benchjson -commit $(git rev-parse --short HEAD) > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark result line.
type sample struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// summary is one benchmark's distribution across its samples.
type summary struct {
	Name    string               `json:"name"`
	Samples int                  `json:"samples"`
	Metrics map[string]quartiles `json:"metrics"`
}

// quartiles are a metric's first quartile, median and third quartile,
// each interpolated linearly between the nearest sorted samples.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// report is the emitted document.
type report struct {
	Commit     string   `json:"commit,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []sample `json:"benchmarks"`
	// Summary has one entry per benchmark, in order of first
	// appearance: the median and spread of each metric across its
	// samples.
	Summary []summary `json:"summary"`
	// SampledSpeedup is the mean "sampled-speedup" custom metric across
	// the run — the interval-sampling subsystem's headline number,
	// surfaced at the top level so trackers don't need to know which
	// benchmark reports it. Omitted when no sampled benchmark ran.
	SampledSpeedup float64 `json:"sampled_speedup,omitempty"`
	// ConfigsPerSecCore is the best mean configs/s/core across the
	// BenchmarkBatchSweep batch sizes — the batch kernel's headline
	// sweep throughput on one core. BatchSpeedup is its ratio over the
	// b=1 (lockstep off) sub-benchmark. Both omitted when the batch
	// sweep didn't run.
	ConfigsPerSecCore float64 `json:"configs_per_sec_core,omitempty"`
	BatchSpeedup      float64 `json:"batch_speedup,omitempty"`
}

func main() {
	commit := flag.String("commit", "", "commit hash to stamp into the report")
	baseline := flag.String("baseline", "", "earlier BENCH_*.json to compare configs_per_sec_core against (one line on stderr)")
	maxRegress := flag.Float64("max-regress", 0, "with -baseline: exit nonzero if configs_per_sec_core regressed more than this percent (0 = report only)")
	flag.Parse()

	rep := report{
		Commit:    *commit,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s, ok := parseLine(sc.Text()); ok {
			rep.Benchmarks = append(rep.Benchmarks, s)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found on stdin"))
	}
	rep.Summary = summarize(rep.Benchmarks)
	rep.SampledSpeedup = sampledSpeedup(rep.Benchmarks)
	rep.ConfigsPerSecCore, rep.BatchSpeedup = batchMetrics(rep.Benchmarks)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if *baseline != "" {
		if err := compareBaseline(rep, *baseline, *maxRegress); err != nil {
			fatal(err)
		}
	}
}

// summarize groups samples by benchmark name, in order of first
// appearance, and computes each metric's quartiles over the samples
// that report it.
func summarize(samples []sample) []summary {
	var out []summary
	values := make(map[string]map[string][]float64)
	for _, s := range samples {
		vs, ok := values[s.Name]
		if !ok {
			vs = make(map[string][]float64)
			values[s.Name] = vs
			out = append(out, summary{Name: s.Name})
		}
		for unit, v := range s.Metrics {
			vs[unit] = append(vs[unit], v)
		}
	}
	for i := range out {
		sum := &out[i]
		sum.Metrics = make(map[string]quartiles)
		for unit, vs := range values[sum.Name] {
			sort.Float64s(vs)
			sum.Metrics[unit] = quartiles{quantile(vs, 0.25), quantile(vs, 0.5), quantile(vs, 0.75)}
			sum.Samples = max(sum.Samples, len(vs))
		}
	}
	return out
}

// quantile returns the q-quantile of sorted, non-empty vs, linearly
// interpolated between the two nearest ranks.
func quantile(vs []float64, q float64) float64 {
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[lo]
	}
	return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
}

// batchMetrics derives the batch kernel's headline numbers from the
// BenchmarkBatchSweep sub-benchmarks: the best per-batch-size mean of
// the configs/s/core metric, and its ratio over the b=1 mean. Repeated
// -count=N runs of one batch size average before the comparison, so
// the speedup is means-over-means, not a lucky single pairing.
func batchMetrics(samples []sample) (cps, speedup float64) {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, s := range samples {
		rest, ok := strings.CutPrefix(s.Name, "BenchmarkBatchSweep/b=")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			continue
		}
		v, ok := s.Metrics["configs/s/core"]
		if !ok {
			continue
		}
		sums[n] += v
		counts[n]++
	}
	for n, c := range counts {
		if mean := sums[n] / float64(c); mean > cps {
			cps = mean
		}
	}
	if c := counts[1]; c > 0 && cps > 0 {
		if base := sums[1] / float64(c); base > 0 {
			speedup = cps / base
		}
	}
	return cps, speedup
}

// compareBaseline prints one line per headline metric comparing rep
// against an earlier report on stderr. A metric absent on either side —
// baselines written before PR 8 predate configs_per_sec_core entirely,
// and partial -bench patterns can skip the batch sweep — is skipped
// with a one-line notice naming the missing side, and is never an
// error, whatever -max-regress says: there is no regression to measure
// without both numbers. Only configs_per_sec_core gates. An unreadable
// or unparsable baseline is a hard error when gating (the gate cannot
// run blind) and a notice in report-only mode.
func compareBaseline(rep report, path string, maxRegress float64) error {
	from := path
	var base report
	data, err := os.ReadFile(path)
	if err == nil {
		if jerr := json.Unmarshal(data, &base); jerr != nil {
			err = fmt.Errorf("parsing baseline %s: %w", path, jerr)
		}
	}
	if err != nil {
		if maxRegress > 0 {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchjson: baseline comparison skipped: %v\n", err)
		return nil
	}
	if base.Commit != "" {
		from = base.Commit
	}

	// compare reports one metric's delta, or skips it with the reason.
	// Metrics neither side reports stay silent — three "skipped" lines
	// for a run that never had the batch sweep is noise, not signal.
	compare := func(name string, cur, old float64) (delta float64, ok bool) {
		switch {
		case cur == 0 && old == 0:
			return 0, false
		case old == 0:
			fmt.Fprintf(os.Stderr, "benchjson: %s comparison vs %s skipped (baseline predates the metric)\n", name, from)
			return 0, false
		case cur == 0:
			fmt.Fprintf(os.Stderr, "benchjson: %s comparison vs %s skipped (this run did not report it)\n", name, from)
			return 0, false
		}
		delta = 100 * (cur - old) / old
		fmt.Fprintf(os.Stderr, "benchjson: %s %.2f vs %.2f at %s (%+.1f%%)\n", name, cur, old, from, delta)
		return delta, true
	}
	compare("sampled_speedup", rep.SampledSpeedup, base.SampledSpeedup)
	compare("batch_speedup", rep.BatchSpeedup, base.BatchSpeedup)
	if delta, ok := compare("configs_per_sec_core", rep.ConfigsPerSecCore, base.ConfigsPerSecCore); ok && maxRegress > 0 && delta < -maxRegress {
		return fmt.Errorf("configs_per_sec_core regressed %.1f%% (limit %.1f%%) vs %s", -delta, maxRegress, from)
	}
	return nil
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFullSimulation-8   42   27012345 ns/op   2000000 insts/sec   12345 B/op   378 allocs/op
//
// Lines that don't look like benchmark results (test output, figure
// tables, PASS/ok trailers) return ok=false.
func parseLine(line string) (sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return sample{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return sample{}, false
	}
	s := sample{
		// Strip the -GOMAXPROCS suffix so names are stable across machines.
		Name:       strings.TrimSuffix(fields[0], "-"+lastDashPart(fields[0])),
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, false
		}
		s.Metrics[fields[i+1]] = v
	}
	if len(s.Metrics) == 0 {
		return sample{}, false
	}
	return s, true
}

// sampledSpeedup averages the "sampled-speedup" metric over every
// sample that reports it, or returns 0 when none does.
func sampledSpeedup(samples []sample) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if v, ok := s.Metrics["sampled-speedup"]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// lastDashPart returns the text after the final '-' if it is numeric
// (the GOMAXPROCS suffix), or "" otherwise.
func lastDashPart(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return ""
	}
	suffix := name[i+1:]
	if _, err := strconv.Atoi(suffix); err != nil {
		return ""
	}
	return suffix
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
