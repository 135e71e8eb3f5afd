package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// validationSample is the sampling plan the acceptance suite pins:
// 1000 windows of 1500 instructions (plus 500 of timed pipeline
// re-warm) stratified over a 24M-instruction measure phase — 12x fewer
// timed instructions than exhaustive measurement. The window count is
// what buys the error bound: per-window IPC varies up to ~28% RSD on
// the phase-heavy models, so the √n averaging of ~1000 stratified
// windows is needed to land under 2%.
var validationSample = SampleSpec{IntervalInsts: 24_000, WindowInsts: 1_500, WarmupInsts: 500}

const validationMeasure = 24_000_000

func sampleConfig(bench string) Config {
	return Config{
		Benchmark: bench,
		Seed:      1,
		CPU:       cpu.DefaultConfig(),
		Memory:    mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
	}
}

// sampledIPCTolerance bounds |IPC(sampled) - IPC(full)| / IPC(full)
// under the validation plan across all nine workload models — the
// acceptance bar for trusting sampled sweeps. Measured worst case is
// 1.59% (apsi); everything else sits under 1.1%.
const sampledIPCTolerance = 0.02

// sampledMinSpeedup is the floor on timed-cycle reduction: the point of
// sampling is simulating ~100x-longer workloads for the same budget, so
// a plan that times more than a tenth of the cycles is misconfigured.
// The validation plan measures 12.1x on every model.
const sampledMinSpeedup = 10.0

// TestSampledVsFull validates interval sampling against exhaustive
// measurement: at least 10x fewer timed measure-phase cycles, at most
// 2% relative IPC error. Short mode covers the best- and worst-error
// models; the full run (make sample, the CI sample job) covers all
// nine. The models run as parallel subtests: each is a lone
// single-goroutine simulation pair.
func TestSampledVsFull(t *testing.T) {
	benches := workload.BenchmarkNames()
	if testing.Short() {
		benches = []string{"gcc", "apsi"}
	}
	for _, bench := range benches {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			cfg := sampleConfig(bench)
			cfg.MeasureInsts = validationMeasure
			full, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sampledCfg := cfg
			spec := validationSample
			sampledCfg.Sample = &spec
			sampled, err := Run(sampledCfg)
			if err != nil {
				t.Fatal(err)
			}
			if sampled.Sampled == nil {
				t.Fatal("sampled run reported no sampling summary")
			}
			sum := sampled.Sampled
			if sum.TimedCycles == 0 || full.Cycles == 0 {
				t.Fatalf("degenerate cycle counts: full=%d timed=%d", full.Cycles, sum.TimedCycles)
			}
			reduction := float64(full.Cycles) / float64(sum.TimedCycles)
			ipcErr := math.Abs(sampled.IPC-full.IPC) / full.IPC
			t.Logf("windows=%d timed=%d/%d insts, reduction %.1fx (reported speedup %.1fx), IPC full %.4f sampled %.4f err %.2f%% bound %.2f%%",
				sum.Windows, sum.TimedInsts, sum.TotalInsts, reduction, sum.Speedup,
				full.IPC, sampled.IPC, 100*ipcErr, 100*sum.IPCErrorBound)
			if reduction < sampledMinSpeedup {
				t.Errorf("timed-cycle reduction %.1fx below the %.0fx floor", reduction, sampledMinSpeedup)
			}
			if ipcErr > sampledIPCTolerance {
				t.Errorf("sampled IPC %.4f deviates %.2f%% from full %.4f (tolerance %.0f%%)",
					sampled.IPC, 100*ipcErr, full.IPC, 100*sampledIPCTolerance)
			}
			if sampled.MissesPerInst < 0 || sampled.BranchAccuracy <= 0 {
				t.Errorf("implausible sampled rates: %+v", sampled)
			}
		})
	}
}

// TestSampledRecombinationExact pins the estimator itself, separated
// from sampling error: when warmup+window covers each whole interval,
// every instruction is timed and the weighted recombination must
// reproduce the exhaustive result almost exactly (float weighting
// against integer cycle counting costs well under 0.1%).
func TestSampledRecombinationExact(t *testing.T) {
	full, err := Run(sampleConfig("gcc"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampleConfig("gcc")
	cfg.Sample = &SampleSpec{IntervalInsts: 2_000, WindowInsts: 1_999, WarmupInsts: 1}
	timedAll, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(timedAll.IPC-full.IPC) / full.IPC; e > 0.001 {
		t.Fatalf("fully-timed sampled IPC %.4f deviates %.3f%% from exhaustive %.4f", timedAll.IPC, 100*e, full.IPC)
	}
	if timedAll.Sampled.Speedup > 1.05 {
		t.Fatalf("fully-timed run claims %.2fx speedup", timedAll.Sampled.Speedup)
	}
}

// TestSampledDeterministic: sampling must be as reproducible as
// exhaustive simulation — same config, same estimate, bit for bit.
func TestSampledDeterministic(t *testing.T) {
	cfg := sampleConfig("gcc")
	cfg.Sample = &SampleSpec{IntervalInsts: 24_000, WindowInsts: 1_500, WarmupInsts: 500}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled run nondeterministic:\nrun 1: %+v\nrun 2: %+v", a, b)
	}
}

func TestSampleSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec SampleSpec
	}{
		{"zero interval", SampleSpec{WindowInsts: 100, WarmupInsts: 10}},
		{"zero window", SampleSpec{IntervalInsts: 1000, WarmupInsts: 10}},
		{"zero warmup", SampleSpec{IntervalInsts: 1000, WindowInsts: 100}},
		{"window overflows interval", SampleSpec{IntervalInsts: 1000, WindowInsts: 900, WarmupInsts: 200}},
		{"interval exceeds measure", SampleSpec{IntervalInsts: 10_000_000, WindowInsts: 100, WarmupInsts: 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sampleConfig("gcc").WithDefaults()
			spec := tc.spec
			cfg.Sample = &spec
			if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("spec %+v passed validation: err=%v", tc.spec, err)
			}
		})
	}
	// And the validation plan itself must validate at its measure size.
	cfg := sampleConfig("gcc")
	cfg.MeasureInsts = validationMeasure
	cfg = cfg.WithDefaults()
	spec := validationSample
	cfg.Sample = &spec
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestParseSampleSpec pins the "interval,window,warmup" form hbsim and
// hbsweep read from -sample: spaces around a count are allowed, a
// wrong count or a non-decimal part is not.
func TestParseSampleSpec(t *testing.T) {
	for _, in := range []string{"6000,1500,500", " 6000, 1500 ,500 "} {
		got, err := ParseSampleSpec(in)
		if err != nil {
			t.Fatalf("ParseSampleSpec(%q): %v", in, err)
		}
		if want := (SampleSpec{IntervalInsts: 6000, WindowInsts: 1500, WarmupInsts: 500}); *got != want {
			t.Errorf("ParseSampleSpec(%q) = %+v, want %+v", in, *got, want)
		}
	}
	for _, bad := range []string{"", "6000,1500", "6000,1500,500,1", "6000,x,500", "6000,-1,500", "6000,1 500,500"} {
		if _, err := ParseSampleSpec(bad); err == nil {
			t.Errorf("ParseSampleSpec(%q) should fail", bad)
		}
	}
}

// TestSampledTailInterval: a measure window that is not a multiple of
// the interval leaves a tail; if warmup+window don't fit, the whole
// tail is timed rather than dropped.
func TestSampledTailInterval(t *testing.T) {
	cfg := sampleConfig("gcc")
	cfg.MeasureInsts = 25_000 // one full interval + a 1000-inst tail
	cfg.Sample = &SampleSpec{IntervalInsts: 24_000, WindowInsts: 1_500, WarmupInsts: 500}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled.Windows != 2 {
		t.Fatalf("windows=%d, want 2 (one interval window + the timed tail)", res.Sampled.Windows)
	}
	if res.Instructions != 25_000 {
		t.Fatalf("instructions=%d, want the full measure window", res.Instructions)
	}
}

// BenchmarkSampledSimulation times a sampled run end-to-end and reports
// the achieved speedup as a custom metric, so the CI bench baseline
// tracks sampling efficiency release over release.
func BenchmarkSampledSimulation(b *testing.B) {
	cfg := sampleConfig("gcc")
	cfg.MeasureInsts = 2_400_000
	spec := validationSample
	cfg.Sample = &spec
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Sampled.Speedup
	}
	b.ReportMetric(speedup, "sampled-speedup")
}
