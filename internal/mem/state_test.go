package mem

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// TestImportStateRejectsOrganizationMismatch pins ImportState's
// presence guards: a snapshot whose lower level is filed under the
// other organization's key, or under both, is refused, even when its
// chip bus presence matches the system's.
func TestImportStateRejectsOrganizationMismatch(t *testing.T) {
	sram := newTestSystem(t, DefaultSRAMSystem(32<<10, 1, PortConfig{Kind: DuplicatePorts}, false))
	dram := newTestSystem(t, DefaultDRAMSystem(6, false))

	if err := dram.ImportState(sram.ExportState()); err == nil {
		t.Error("SRAM snapshot imported into a DRAM system")
	}
	if err := sram.ImportState(dram.ExportState()); err == nil {
		t.Error("DRAM snapshot imported into an SRAM system")
	}

	st := sram.ExportState()
	st.L2, st.DRAM = nil, st.L2
	if err := sram.ImportState(st); err == nil {
		t.Error("SRAM snapshot with its L2 filed as DRAM imported")
	}
	st = sram.ExportState()
	st.DRAM = st.L2
	if err := sram.ImportState(st); err == nil {
		t.Error("SRAM snapshot carrying both L2 and DRAM imported")
	}
	st = dram.ExportState()
	st.L2, st.DRAM = st.DRAM, nil
	if err := dram.ImportState(st); err == nil {
		t.Error("DRAM snapshot with its DRAM filed as L2 imported")
	}
}

// TestExportStateKeys pins the snapshot payload's top-level JSON keys
// for each organization: the SRAM organization exports its lower level
// under "l2" beside a "chip_bus", the DRAM organization under "dram"
// with no chip bus.
func TestExportStateKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SystemConfig
		want []string
	}{
		{"SRAM", DefaultSRAMSystem(32<<10, 1, PortConfig{Kind: DuplicatePorts}, false),
			[]string{"chip_bus", "l1", "l2", "mem_bus", "memory"}},
		{"DRAM", DefaultDRAMSystem(6, false),
			[]string{"dram", "l1", "mem_bus", "memory"}},
	} {
		data, err := json.Marshal(newTestSystem(t, tc.cfg).ExportState())
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range top {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !reflect.DeepEqual(keys, tc.want) {
			t.Errorf("%s: exported keys %v, want %v", tc.name, keys, tc.want)
		}
	}
}
