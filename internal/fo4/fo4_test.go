package fo4

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperAnchors(t *testing.T) {
	cases := []struct {
		org   Organization
		bytes int
		want  float64
	}{
		{SinglePorted, 8 * 1024, 25.0},    // defines the 25 FO4 baseline cycle
		{SinglePorted, 512 * 1024, 41.75}, // 1.67 cycles at 25 FO4
		{SinglePorted, 1024 * 1024, 55.0}, // 2.20 cycles at 25 FO4
		{SinglePorted, 64 * 1024, 29.0},   // fits a 29 FO4 single-cycle processor
		{SinglePorted, 4 * 1024, 24.0},    // smallest single-cycle cache needs 24 FO4
		{EightWayBanked, 512 * 1024, 41.75},
		{EightWayBanked, 1024 * 1024, 55.0},
	}
	for _, c := range cases {
		got, err := AccessTime(c.org, c.bytes)
		if err != nil {
			t.Fatalf("AccessTime(%v, %d): %v", c.org, c.bytes, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AccessTime(%v, %s) = %.2f, want %.2f", c.org, SizeLabel(c.bytes), got, c.want)
		}
	}
}

func TestPaperCycleRatios(t *testing.T) {
	// "a 512 Kbyte cache can be accessed in 1.67 cycles, and a 1 Mbyte
	// cache can be accessed in 2.20 cycles" at a 25 FO4 cycle.
	for _, c := range []struct {
		bytes int
		want  float64
	}{{512 * 1024, 1.67}, {1024 * 1024, 2.20}} {
		got := MustAccessTime(SinglePorted, c.bytes) / BaselineCycleFO4
		if math.Abs(got-c.want) > 0.005 {
			t.Errorf("%s: %.3f cycles, want %.2f", SizeLabel(c.bytes), got, c.want)
		}
	}
}

func TestBankedVsSinglePorted(t *testing.T) {
	// Banked caches are slower than single-ported below 16 KB and
	// identical at 16 KB and above.
	for _, b := range PowerOfTwoSizes() {
		sp := MustAccessTime(SinglePorted, b)
		bk := MustAccessTime(EightWayBanked, b)
		if b < 16*1024 {
			if bk <= sp {
				t.Errorf("%s: banked %.2f should exceed single-ported %.2f", SizeLabel(b), bk, sp)
			}
		} else if bk != sp {
			t.Errorf("%s: banked %.2f should equal single-ported %.2f", SizeLabel(b), bk, sp)
		}
	}
}

func TestMonotonicSinglePorted(t *testing.T) {
	prev := 0.0
	for _, b := range PowerOfTwoSizes() {
		cur := MustAccessTime(SinglePorted, b)
		if cur <= prev {
			t.Errorf("single-ported curve not increasing at %s: %.2f <= %.2f", SizeLabel(b), cur, prev)
		}
		prev = cur
	}
}

func TestAccessTimeOutOfRange(t *testing.T) {
	if _, err := AccessTime(SinglePorted, 2*1024); err == nil {
		t.Error("expected error for 2 KB cache")
	}
	if _, err := AccessTime(SinglePorted, 2*1024*1024); err == nil {
		t.Error("expected error for 2 MB cache")
	}
	if _, err := AccessTime(Organization(99), 8*1024); err == nil {
		t.Error("expected error for unknown organization")
	}
}

func TestHitCyclesPaperExamples(t *testing.T) {
	// At a 25 FO4 cycle: 8 KB is one cycle; 512 KB pipelines into two
	// cycles (41.75 + 1.5 latch = 43.25 <= 50); 1 MB needs three cycles
	// (55 + 1.5 = 56.5 > 50 but 55 + 3 = 58 <= 75).
	cases := []struct {
		bytes int
		want  int
	}{
		{8 * 1024, 1},
		{32 * 1024, 2},
		{512 * 1024, 2},
		{1024 * 1024, 3},
	}
	for _, c := range cases {
		got, err := HitCycles(SinglePorted, c.bytes, 25.0)
		if err != nil {
			t.Fatalf("HitCycles(%s): %v", SizeLabel(c.bytes), err)
		}
		if got != c.want {
			t.Errorf("HitCycles(%s, 25 FO4) = %d, want %d", SizeLabel(c.bytes), got, c.want)
		}
	}
}

func TestMaxCacheBytesForPaperConclusions(t *testing.T) {
	// "For a processor with a slow cycle time of 29 FO4, a 64 Kbyte
	// dual-ported single-cycle cache provides the best processor
	// performance" -- so 64 KB must be the largest one-cycle duplicate
	// cache at 29 FO4.
	if b, ok := MaxCacheBytesFor(SinglePorted, 1, 29.0); !ok || b != 64*1024 {
		t.Errorf("MaxCacheBytesFor(1 cycle, 29 FO4) = %s, %v; want 64K", SizeLabel(b), ok)
	}
	// "For processor cycle times of less than 24 FO4 ... the processor
	// cannot support a single-cycle non-pipelined cache of even 4 KBytes."
	if _, ok := MaxCacheBytesFor(SinglePorted, 1, 23.9); ok {
		t.Error("no single-cycle cache should fit below 24 FO4")
	}
	if b, ok := MaxCacheBytesFor(SinglePorted, 1, 24.0); !ok || b != 4*1024 {
		t.Errorf("MaxCacheBytesFor(1 cycle, 24 FO4) = %s, %v; want 4K", SizeLabel(b), ok)
	}
	// At 25 FO4 with two cycles, 512 KB fits but 1 MB does not.
	if b, ok := MaxCacheBytesFor(SinglePorted, 2, 25.0); !ok || b != 512*1024 {
		t.Errorf("MaxCacheBytesFor(2 cycles, 25 FO4) = %s, %v; want 512K", SizeLabel(b), ok)
	}
	// At 25 FO4 with three cycles, the full 1 MB design space fits.
	if b, ok := MaxCacheBytesFor(SinglePorted, 3, 25.0); !ok || b != 1024*1024 {
		t.Errorf("MaxCacheBytesFor(3 cycles, 25 FO4) = %s, %v; want 1M", SizeLabel(b), ok)
	}
}

func TestCyclesForNs(t *testing.T) {
	// At 200 MHz (25 FO4, 5 ns cycle): 50 ns L2 = 10 cycles, 300 ns
	// memory = 60 cycles -- the paper's baseline latencies.
	if got := CyclesForNs(50, 25); got != 10 {
		t.Errorf("L2 at 25 FO4 = %d cycles, want 10", got)
	}
	if got := CyclesForNs(300, 25); got != 60 {
		t.Errorf("memory at 25 FO4 = %d cycles, want 60", got)
	}
	// A 10 FO4 (2 ns) processor sees 25 and 150 cycles.
	if got := CyclesForNs(50, 10); got != 25 {
		t.Errorf("L2 at 10 FO4 = %d cycles, want 25", got)
	}
	if got := CyclesForNs(300, 10); got != 150 {
		t.Errorf("memory at 10 FO4 = %d cycles, want 150", got)
	}
}

func TestCycleNs(t *testing.T) {
	if got := CycleNs(25); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("CycleNs(25) = %v, want 5", got)
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{
		4 * 1024:        "4K",
		512 * 1024:      "512K",
		1024 * 1024:     "1M",
		4 * 1024 * 1024: "4M",
		100:             "100B",
	}
	for b, want := range cases {
		if got := SizeLabel(b); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", b, got, want)
		}
	}
}

// Property: interpolation never leaves the envelope of its neighboring
// anchors, and access time is monotone in size for the single-ported
// curve over arbitrary in-range sizes.
func TestAccessTimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		lo := MinCacheBytes + int(a)%(MaxCacheBytes-MinCacheBytes)
		hi := MinCacheBytes + int(b)%(MaxCacheBytes-MinCacheBytes)
		if lo > hi {
			lo, hi = hi, lo
		}
		tlo, err1 := AccessTime(SinglePorted, lo)
		thi, err2 := AccessTime(SinglePorted, hi)
		if err1 != nil || err2 != nil {
			return false
		}
		return tlo <= thi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: HitCycles is non-increasing in cycle time and its result is
// always sufficient to cover the access plus latch overhead.
func TestHitCyclesSufficientProperty(t *testing.T) {
	f := func(szSeed uint8, ctSeed uint8) bool {
		sizes := PowerOfTwoSizes()
		b := sizes[int(szSeed)%len(sizes)]
		ct := 10.0 + float64(ctSeed%21) // 10..30 FO4
		d, err := HitCycles(SinglePorted, b, ct)
		if err != nil {
			return true // very small cycle times may be infeasible
		}
		at := MustAccessTime(SinglePorted, b)
		total := at
		if d > 1 {
			total += float64(d-1) * PipelineLatchFO4
		}
		return total <= float64(d)*ct+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParseSize pins the capacity notation the CLIs read. ParseSize is
// permissive about magnitude: "0" and "-8K" are well-formed numbers, and
// sim.Config.Validate is what refuses such sizes (TestValidate's
// zero-size and negative L1 cases). A bare suffix, embedded space or
// non-decimal number is malformed, not zero.
func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"32K", 32 << 10, true},
		{"4k", 4 << 10, true},
		{"1M", 1 << 20, true},
		{"1m", 1 << 20, true},
		{"512K", 512 << 10, true},
		{"100", 100, true},
		{" 8K ", 8 << 10, true},
		{"0", 0, true},
		{"-8K", -8 << 10, true},
		{"-1", -1, true},
		{"", 0, false},
		{"K", 0, false},
		{"M", 0, false},
		{"x32", 0, false},
		{"3.5K", 0, false},
		{"8 K", 0, false},
		{"1e3", 0, false},
	} {
		got, err := ParseSize(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseSize(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
		if tc.ok && tc.want > 0 && tc.want%1024 == 0 {
			if back, err := ParseSize(SizeLabel(tc.want)); err != nil || back != tc.want {
				t.Errorf("ParseSize(SizeLabel(%d)) = %d, %v", tc.want, back, err)
			}
		}
	}
}
