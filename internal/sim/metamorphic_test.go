package sim

import (
	"testing"

	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// Metamorphic properties: relations between runs that must hold for
// any correct simulator, without knowing any run's absolute answer.
//
// The laws are monotonicity laws from the paper's own design space:
// growing the cache cannot raise the steady-state miss rate, and
// adding bandwidth (more ports) or cutting latency (faster hits)
// cannot lower IPC. Both hold only up to small slack: set-associative
// LRU is not strictly inclusive across sizes, and in the out-of-order
// machine a timing change reshuffles port-conflict and MSHR-merge
// patterns, so the epsilons below absorb genuine model noise, not
// measurement error (every run is deterministic).
const (
	// missRateEps bounds non-inclusion noise on miss-rate monotonicity,
	// in absolute misses per instruction.
	missRateEps = 2e-4
	// ipcSlack bounds butterfly-effect noise on IPC monotonicity, as a
	// relative fraction.
	ipcSlack = 0.005
)

func metamorphicBenches(t *testing.T) []string {
	// The full nine-benchmark sweep re-warms a 2M-instruction window
	// per point; run the representative subset when the suite is asked
	// to be quick or is already paying the race detector's slowdown.
	if testing.Short() || raceEnabled {
		return workload.RepresentativeNames()
	}
	return workload.BenchmarkNames()
}

// TestMissRateMonotonicInCacheSize sweeps Figure 3's axis: for every
// workload, a larger single-ported cache must not miss more often.
func TestMissRateMonotonicInCacheSize(t *testing.T) {
	sizes := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20}
	for _, bench := range metamorphicBenches(t) {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			rates, err := MissRates(bench, 1, sizes, 120_000)
			if err != nil {
				t.Fatal(err)
			}
			prev := 1.0
			for i, rate := range rates {
				if rate > prev+missRateEps {
					t.Errorf("%dK misses/inst %.5f exceeds smaller cache's %.5f", sizes[i]>>10, rate, prev)
				}
				prev = rate
			}
		})
	}
}

func ipcAt(t *testing.T, bench string, memory mem.SystemConfig) float64 {
	t.Helper()
	cfg := baseConfig(bench)
	cfg.PrewarmInsts = 100_000
	cfg.MeasureInsts = 60_000
	cfg.Memory = memory
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.IPC
}

// TestIPCMonotonicInPortCount: more ideal ports on the same cache
// must not lower IPC.
func TestIPCMonotonicInPortCount(t *testing.T) {
	for _, bench := range workload.RepresentativeNames() {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			prev := 0.0
			for _, n := range []int{1, 2, 4} {
				ipc := ipcAt(t, bench, mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.IdealPorts, Count: n}, false))
				if ipc < prev*(1-ipcSlack) {
					t.Errorf("%d ports IPC %.3f below %.3f with fewer ports", n, ipc, prev)
				}
				prev = ipc
			}
		})
	}
}

// TestIPCMonotonicInHitLatency: a faster primary cache hit must not
// lower IPC (sweeping the paper's 1-3 cycle pipelined hit times).
func TestIPCMonotonicInHitLatency(t *testing.T) {
	for _, bench := range workload.RepresentativeNames() {
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			prev := 0.0
			for _, hit := range []int{3, 2, 1} {
				ipc := ipcAt(t, bench, mem.DefaultSRAMSystem(32<<10, hit, mem.PortConfig{Kind: mem.DuplicatePorts}, false))
				if ipc < prev*(1-ipcSlack) {
					t.Errorf("%d-cycle hit IPC %.3f below %.3f with slower hits", hit, ipc, prev)
				}
				prev = ipc
			}
		})
	}
}
