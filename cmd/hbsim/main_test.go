package main

import (
	"errors"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/fo4"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
)

// hbsim reads its -size flag with fo4.ParseSize; these tests pin the
// notation the flag accepts and how the CLI's path through validation
// treats sizes that parse but cannot be simulated.

func TestParseSize(t *testing.T) {
	cases := map[string]int{
		"32K":  32 << 10,
		"4k":   4 << 10,
		"1M":   1 << 20,
		"512K": 512 << 10,
		"100":  100,
		" 8K ": 8 << 10,
	}
	for in, want := range cases {
		got, err := fo4.ParseSize(in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "K", "x32", "3.5K"} {
		if _, err := fo4.ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should fail", bad)
		}
	}
}

func TestParseSizeOverflowSuffix(t *testing.T) {
	// A bare suffix or embedded whitespace is malformed, not zero.
	for _, bad := range []string{"M", "8 K", "1e3"} {
		if _, err := fo4.ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should fail", bad)
		}
	}
}

// ParseSize is permissive about magnitude — "0" and "-8K" are
// well-formed numbers — so the guard against unusable sizes lives in
// sim.Config.Validate. This test pins that division of labor: such
// sizes parse, then validation refuses to simulate them.
func TestParseSizeZeroAndNegativeRejectedByValidate(t *testing.T) {
	for in, want := range map[string]int{"0": 0, "-8K": -8 << 10, "-1": -1} {
		got, err := fo4.ParseSize(in)
		if err != nil {
			t.Fatalf("ParseSize(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseSize(%q) = %d, want %d", in, got, want)
		}
		cfg := sim.Config{
			Benchmark: "gcc",
			Seed:      1,
			CPU:       cpu.DefaultConfig(),
			Memory:    sim.ScaledSRAMSystem(got, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, false, 25),
		}.WithDefaults()
		if err := cfg.Validate(); !errors.Is(err, sim.ErrInvalidConfig) {
			t.Errorf("size %q: Validate = %v, want ErrInvalidConfig", in, err)
		}
	}
}
