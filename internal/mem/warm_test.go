package mem

import (
	"reflect"
	"testing"
)

func newTestSystem(t *testing.T, cfg SystemConfig) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestApplyWarmRejectsMismatch pins ApplyWarm's guards: a warm state
// captured from one organization or L1 geometry is refused by a system
// of another, while a system that differs only in fields outside
// WarmStateKey takes it and ends with the captured tag arrays and
// spill maps.
func TestApplyWarmRejectsMismatch(t *testing.T) {
	sramCfg := DefaultSRAMSystem(32<<10, 1, PortConfig{Kind: DuplicatePorts}, false)
	sram := newTestSystem(t, sramCfg)
	driveSystem(sram)
	var sramWarm WarmState
	sram.CaptureWarm(&sramWarm)

	dram := newTestSystem(t, DefaultDRAMSystem(6, false))
	driveSystem(dram)
	var dramWarm WarmState
	dram.CaptureWarm(&dramWarm)

	for _, tc := range []struct {
		name string
		w    *WarmState
		cfg  SystemConfig
	}{
		{"SRAM state onto DRAM organization", &sramWarm, DefaultDRAMSystem(6, false)},
		{"DRAM state onto SRAM organization", &dramWarm, sramCfg},
		{"different L1 size", &sramWarm, DefaultSRAMSystem(16<<10, 1, PortConfig{Kind: DuplicatePorts}, false)},
	} {
		if err := newTestSystem(t, tc.cfg).ApplyWarm(tc.w); err == nil {
			t.Errorf("%s: ApplyWarm succeeded, want an error", tc.name)
		}
	}

	twinCfg := DefaultSRAMSystem(32<<10, 2, PortConfig{Kind: BankedPorts, Count: 8}, true)
	if WarmStateKey(twinCfg) != WarmStateKey(sramCfg) {
		t.Fatal("twin config must share the captured system's WarmStateKey")
	}
	twin := newTestSystem(t, twinCfg)
	if err := twin.ApplyWarm(&sramWarm); err != nil {
		t.Fatal(err)
	}
	want, got := sram.ExportState(), twin.ExportState()
	if !reflect.DeepEqual(got.L1.Array, want.L1.Array) || !reflect.DeepEqual(got.L1.Spill, want.L1.Spill) {
		t.Error("applied L1 warm state differs from the captured one")
	}
	if !reflect.DeepEqual(got.L2.Array, want.L2.Array) || !reflect.DeepEqual(got.L2.DirtySpill, want.L2.DirtySpill) {
		t.Error("applied L2 warm state differs from the captured one")
	}
}
