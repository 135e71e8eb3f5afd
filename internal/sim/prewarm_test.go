package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

func prewarmConfig(bench string, mode PrewarmMode) Config {
	return Config{
		Benchmark:   bench,
		Seed:        1,
		CPU:         cpu.DefaultConfig(),
		Memory:      mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		PrewarmMode: mode,
	}
}

func TestPrewarmModeValidation(t *testing.T) {
	for _, mode := range []PrewarmMode{"", PrewarmFastForward, PrewarmTiming} {
		cfg := prewarmConfig("gcc", mode).WithDefaults()
		if err := cfg.Validate(); err != nil {
			t.Errorf("mode %q: unexpected error: %v", mode, err)
		}
	}
	cfg := prewarmConfig("gcc", "warp-speed").WithDefaults()
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unknown prewarm mode passed validation")
	}
	if !strings.Contains(err.Error(), "warp-speed") {
		t.Errorf("error does not name the bad mode: %v", err)
	}
}

func TestWithDefaultsResolvesPrewarmMode(t *testing.T) {
	cfg := prewarmConfig("gcc", "").WithDefaults()
	if cfg.PrewarmMode != PrewarmFastForward {
		t.Fatalf("empty mode resolved to %q, want %q", cfg.PrewarmMode, PrewarmFastForward)
	}
	cfg = prewarmConfig("gcc", PrewarmTiming).WithDefaults()
	if cfg.PrewarmMode != PrewarmTiming {
		t.Fatalf("explicit mode overwritten: got %q", cfg.PrewarmMode)
	}
}

// TestFastForwardPrewarmDeterministic pins that the fast-forward drain
// is fully deterministic: two runs of the same config agree on every
// field of the result, not just IPC.
func TestFastForwardPrewarmDeterministic(t *testing.T) {
	cfg := prewarmConfig("gcc", PrewarmFastForward)
	cfg.PrewarmInsts = 200_000
	cfg.WarmupInsts = 10_000
	cfg.MeasureInsts = 60_000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fast-forward prewarm is nondeterministic:\nrun 1: %+v\nrun 2: %+v", a, b)
	}
}

// fidelityTolerance bounds |IPC(fast-forward) - IPC(timing)| / IPC(timing)
// across the nine workload models at the default windows. Fast-forward
// warms caches and predictor but not the pipeline, store buffer, or
// MSHRs, so the first few thousand timed instructions differ slightly;
// measured deltas sit under 0.15% on every model (0.14% on database,
// under 0.05% elsewhere), and the bound leaves ~7x headroom over the
// worst observed.
const fidelityTolerance = 0.01

// TestFastForwardPrewarmFidelity compares fast-forward against the
// full-timing prewarm reference on every workload model and bounds the
// relative IPC difference.
func TestFastForwardPrewarmFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-mode prewarm is slow")
	}
	for _, name := range workload.BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			ff, err := Run(prewarmConfig(name, PrewarmFastForward))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Run(prewarmConfig(name, PrewarmTiming))
			if err != nil {
				t.Fatal(err)
			}
			if ref.IPC == 0 {
				t.Fatal("timing reference measured zero IPC")
			}
			delta := math.Abs(ff.IPC-ref.IPC) / ref.IPC
			t.Logf("IPC fast-forward %.4f, timing %.4f, delta %.2f%%", ff.IPC, ref.IPC, 100*delta)
			if delta > fidelityTolerance {
				t.Errorf("fast-forward IPC %.4f deviates %.2f%% from timing reference %.4f (tolerance %.0f%%)",
					ff.IPC, 100*delta, ref.IPC, 100*fidelityTolerance)
			}
		})
	}
}
