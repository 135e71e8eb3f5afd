package mem

import (
	"fmt"
	"sort"
)

// ArrayState is the serializable content of a tag array: the resident
// tags in recency order with their per-slot payload, and the per-set
// occupancy. Geometry (sets, assoc, line size) is rebuilt from config.
// Meta always has one word per slot, zeros for an array that keeps no
// metadata, so the wire format does not depend on which arrays do.
type ArrayState struct {
	Tags  []uint64 `json:"tags"`
	Meta  []uint64 `json:"meta"`
	Dirty []bool   `json:"dirty"`
	Fill  []int32  `json:"fill"`
}

func (a *Array) exportState() ArrayState {
	meta := make([]uint64, len(a.tags))
	copy(meta, a.meta)
	return ArrayState{
		Tags:  append([]uint64(nil), a.tags...),
		Meta:  meta,
		Dirty: append([]bool(nil), a.dirty...),
		Fill:  append([]int32(nil), a.fill...),
	}
}

func (a *Array) importState(name string, st ArrayState) error {
	if len(st.Tags) != len(a.tags) || len(st.Meta) != len(a.tags) ||
		len(st.Dirty) != len(a.dirty) || len(st.Fill) != len(a.fill) {
		return fmt.Errorf("mem: %s snapshot geometry %d/%d/%d/%d, array wants %d/%d/%d/%d",
			name, len(st.Tags), len(st.Meta), len(st.Dirty), len(st.Fill),
			len(a.tags), len(a.tags), len(a.dirty), len(a.fill))
	}
	for set, f := range st.Fill {
		if f < 0 || int(f) > a.assoc {
			return fmt.Errorf("mem: %s snapshot set %d occupancy %d outside [0,%d]", name, set, f, a.assoc)
		}
	}
	if a.meta == nil {
		for i, m := range st.Meta {
			if m != 0 {
				return fmt.Errorf("mem: %s snapshot slot %d carries metadata %#x, array keeps none", name, i, m)
			}
		}
	}
	copy(a.tags, st.Tags)
	copy(a.meta, st.Meta)
	copy(a.dirty, st.Dirty)
	copy(a.fill, st.Fill)
	return nil
}

// SpillEntry is one off-array line whose dirty flag or sector bitmap
// still matters (see spillState). Entries are sorted by line index so
// the serialized form is canonical regardless of map iteration order.
type SpillEntry struct {
	Line  uint64 `json:"line"`
	Meta  uint64 `json:"meta,omitempty"`
	Dirty bool   `json:"dirty,omitempty"`
}

// PortState is the port scheduler's current-cycle arbitration state and
// lifetime counters.
type PortState struct {
	Cycle         uint64 `json:"cycle"`
	Used          int    `json:"used"`
	Grants        int    `json:"grants"`
	BankBusy      []bool `json:"bank_busy,omitempty"`
	LoadGrants    uint64 `json:"load_grants"`
	StoreGrants   uint64 `json:"store_grants"`
	PortConflicts uint64 `json:"port_conflicts"`
	BankConflicts uint64 `json:"bank_conflicts"`
}

// MSHREntry mirrors one miss status handling register.
type MSHREntry struct {
	Line uint64 `json:"line"`
	Done uint64 `json:"done"`
	Live bool   `json:"live"`
}

// MSHRState is the MSHR file's registers and counters.
type MSHRState struct {
	Entries   []MSHREntry `json:"entries"`
	LiveN     int         `json:"live_n"`
	Primary   uint64      `json:"primary"`
	Secondary uint64      `json:"secondary"`
	Full      uint64      `json:"full"`
}

// LineBufferState is the line buffer's resident blocks and counters.
type LineBufferState struct {
	Blocks   []uint64 `json:"blocks"`
	Avail    []uint64 `json:"avail"`
	N        int      `json:"n"`
	Hits     uint64   `json:"hits"`
	Lookups  uint64   `json:"lookups"`
	Fills    uint64   `json:"fills"`
	TooEarly uint64   `json:"too_early"`
}

// L1State is the primary data cache's complete mutable state.
type L1State struct {
	Array  ArrayState   `json:"array"`
	Victim *ArrayState  `json:"victim,omitempty"`
	Spill  []SpillEntry `json:"spill,omitempty"`

	StoreBuf  []uint64 `json:"store_buf"`
	StoreHead int      `json:"store_head"`
	StoreLen  int      `json:"store_len"`
	SBBlkCnt  []uint8  `json:"sb_blk_cnt"`

	Ports      PortState        `json:"ports"`
	MSHRs      MSHRState        `json:"mshrs"`
	LineBuffer *LineBufferState `json:"line_buffer,omitempty"`

	Loads         uint64 `json:"loads"`
	LoadMisses    uint64 `json:"load_misses"`
	Stores        uint64 `json:"stores"`
	StoreMisses   uint64 `json:"store_misses"`
	LBHits        uint64 `json:"lb_hits"`
	VictimHits    uint64 `json:"victim_hits"`
	Retries       uint64 `json:"retries"`
	MSHRStalls    uint64 `json:"mshr_stalls"`
	StoreQFullEvt uint64 `json:"store_q_full_evt"`
	Writebacks    uint64 `json:"writebacks"`
}

// LevelState is the mutable state of the lower cache level, the L2 or
// the DRAM cache.
type LevelState struct {
	Array      ArrayState `json:"array"`
	DirtySpill []uint64   `json:"dirty_spill,omitempty"`
	Accesses   uint64     `json:"accesses"`
	Misses     uint64     `json:"misses"`
	Writebacks uint64     `json:"writebacks"`
}

// BusState is a bus's schedule horizon and counters.
type BusState struct {
	FreeAt     uint64 `json:"free_at"`
	Transfers  uint64 `json:"transfers"`
	BusyCycles uint64 `json:"busy_cycles"`
	WaitCycles uint64 `json:"wait_cycles"`
}

// MemoryState is main memory's counters.
type MemoryState struct {
	Accesses   uint64 `json:"accesses"`
	Writebacks uint64 `json:"writebacks"`
}

// SystemState is the whole hierarchy's mutable state. Exported from one
// System and imported into another built from the same SystemConfig, it
// makes the second bit-identical to the first.
type SystemState struct {
	L1      L1State     `json:"l1"`
	L2      *LevelState `json:"l2,omitempty"`
	DRAM    *LevelState `json:"dram,omitempty"`
	Memory  MemoryState `json:"memory"`
	ChipBus *BusState   `json:"chip_bus,omitempty"`
	MemBus  BusState    `json:"mem_bus"`
}

func sortedSpill(m map[uint64]spillState) []SpillEntry {
	if len(m) == 0 {
		return nil
	}
	out := make([]SpillEntry, 0, len(m))
	for line, sp := range m {
		out = append(out, SpillEntry{Line: line, Meta: sp.meta, Dirty: sp.dirty})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

func sortedLines(m map[uint64]struct{}) []uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(m))
	for line := range m {
		out = append(out, line)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (p *portScheduler) exportState() PortState {
	return PortState{
		Cycle:         uint64(p.cycle),
		Used:          p.used,
		Grants:        p.grants,
		BankBusy:      append([]bool(nil), p.bankBusy...),
		LoadGrants:    p.loadGrants.Value(),
		StoreGrants:   p.storeGrants.Value(),
		PortConflicts: p.portConflicts.Value(),
		BankConflicts: p.bankConflicts.Value(),
	}
}

func (p *portScheduler) importState(st PortState) error {
	if len(st.BankBusy) != len(p.bankBusy) {
		return fmt.Errorf("mem: snapshot has %d banks, port scheduler has %d", len(st.BankBusy), len(p.bankBusy))
	}
	p.cycle = Cycle(st.Cycle)
	p.used = st.Used
	p.grants = st.Grants
	copy(p.bankBusy, st.BankBusy)
	p.loadGrants = Counter(st.LoadGrants)
	p.storeGrants = Counter(st.StoreGrants)
	p.portConflicts = Counter(st.PortConflicts)
	p.bankConflicts = Counter(st.BankConflicts)
	return nil
}

func (m *MSHRFile) exportState() MSHRState {
	st := MSHRState{
		Entries:   make([]MSHREntry, len(m.entries)),
		LiveN:     m.liveN,
		Primary:   m.primary.Value(),
		Secondary: m.secondary.Value(),
		Full:      m.full.Value(),
	}
	for i, e := range m.entries {
		st.Entries[i] = MSHREntry{Line: e.line, Done: uint64(e.done), Live: e.live}
	}
	return st
}

func (m *MSHRFile) importState(st MSHRState) error {
	if len(st.Entries) != len(m.entries) {
		return fmt.Errorf("mem: snapshot has %d MSHRs, file has %d", len(st.Entries), len(m.entries))
	}
	if st.LiveN < 0 || st.LiveN > len(m.entries) {
		return fmt.Errorf("mem: snapshot MSHR liveN %d outside [0,%d]", st.LiveN, len(m.entries))
	}
	for i, e := range st.Entries {
		m.entries[i] = mshrEntry{line: e.Line, done: Cycle(e.Done), live: e.Live}
	}
	m.liveN = st.LiveN
	m.primary = Counter(st.Primary)
	m.secondary = Counter(st.Secondary)
	m.full = Counter(st.Full)
	return nil
}

func (b *LineBuffer) exportState() *LineBufferState {
	st := &LineBufferState{
		Blocks:   append([]uint64(nil), b.blocks...),
		Avail:    make([]uint64, len(b.avail)),
		N:        b.n,
		Hits:     b.hits.Value(),
		Lookups:  b.lookups.Value(),
		Fills:    b.fills.Value(),
		TooEarly: b.tooEarly.Value(),
	}
	for i, a := range b.avail {
		st.Avail[i] = uint64(a)
	}
	return st
}

func (b *LineBuffer) importState(st *LineBufferState) error {
	if len(st.Blocks) != len(b.blocks) || len(st.Avail) != len(b.avail) {
		return fmt.Errorf("mem: snapshot line buffer has %d/%d entries, buffer has %d", len(st.Blocks), len(st.Avail), len(b.blocks))
	}
	if st.N < 0 || st.N > len(b.blocks) {
		return fmt.Errorf("mem: snapshot line buffer occupancy %d outside [0,%d]", st.N, len(b.blocks))
	}
	copy(b.blocks, st.Blocks)
	for i, a := range st.Avail {
		b.avail[i] = Cycle(a)
	}
	b.n = st.N
	b.hits = Counter(st.Hits)
	b.lookups = Counter(st.Lookups)
	b.fills = Counter(st.Fills)
	b.tooEarly = Counter(st.TooEarly)
	return nil
}

func (c *L1Cache) exportState() L1State {
	st := L1State{
		Array:         c.array.exportState(),
		Spill:         sortedSpill(c.spill),
		StoreBuf:      append([]uint64(nil), c.storeBuf...),
		StoreHead:     c.storeHead,
		StoreLen:      c.storeLen,
		SBBlkCnt:      append([]uint8(nil), c.sbBlkCnt[:]...),
		Ports:         c.ports.exportState(),
		MSHRs:         c.mshrs.exportState(),
		Loads:         c.loads.Value(),
		LoadMisses:    c.loadMisses.Value(),
		Stores:        c.stores.Value(),
		StoreMisses:   c.storeMisses.Value(),
		LBHits:        c.lbHits.Value(),
		VictimHits:    c.victimHits.Value(),
		Retries:       c.retries.Value(),
		MSHRStalls:    c.mshrStalls.Value(),
		StoreQFullEvt: c.storeQFullEvt.Value(),
		Writebacks:    c.writebacks.Value(),
	}
	if c.victim != nil {
		v := c.victim.exportState()
		st.Victim = &v
	}
	if c.lb != nil {
		st.LineBuffer = c.lb.exportState()
	}
	return st
}

func (c *L1Cache) importState(st L1State) error {
	if (st.Victim != nil) != (c.victim != nil) {
		return fmt.Errorf("mem: snapshot victim buffer presence %v, cache has %v", st.Victim != nil, c.victim != nil)
	}
	if (st.LineBuffer != nil) != (c.lb != nil) {
		return fmt.Errorf("mem: snapshot line buffer presence %v, cache has %v", st.LineBuffer != nil, c.lb != nil)
	}
	if len(st.StoreBuf) != len(c.storeBuf) {
		return fmt.Errorf("mem: snapshot store buffer has %d slots, cache has %d", len(st.StoreBuf), len(c.storeBuf))
	}
	if len(st.SBBlkCnt) != len(c.sbBlkCnt) {
		return fmt.Errorf("mem: snapshot store block filter has %d slots, want %d", len(st.SBBlkCnt), len(c.sbBlkCnt))
	}
	if st.StoreHead < 0 || st.StoreHead >= len(c.storeBuf) {
		return fmt.Errorf("mem: snapshot store head %d outside [0,%d)", st.StoreHead, len(c.storeBuf))
	}
	if st.StoreLen < 0 || st.StoreLen > len(c.storeBuf) {
		return fmt.Errorf("mem: snapshot store occupancy %d outside [0,%d]", st.StoreLen, len(c.storeBuf))
	}
	if err := c.array.importState("L1", st.Array); err != nil {
		return err
	}
	if c.victim != nil {
		if err := c.victim.importState("victim", *st.Victim); err != nil {
			return err
		}
	}
	if c.lb != nil {
		if err := c.lb.importState(st.LineBuffer); err != nil {
			return err
		}
	}
	if err := c.ports.importState(st.Ports); err != nil {
		return err
	}
	if err := c.mshrs.importState(st.MSHRs); err != nil {
		return err
	}
	c.spill = nil
	if len(st.Spill) != 0 {
		c.spill = make(map[uint64]spillState, len(st.Spill))
		for _, e := range st.Spill {
			c.spill[e.Line] = spillState{meta: e.Meta, dirty: e.Dirty}
		}
	}
	copy(c.storeBuf, st.StoreBuf)
	c.storeHead = st.StoreHead
	c.storeLen = st.StoreLen
	copy(c.sbBlkCnt[:], st.SBBlkCnt)
	c.loads = Counter(st.Loads)
	c.loadMisses = Counter(st.LoadMisses)
	c.stores = Counter(st.Stores)
	c.storeMisses = Counter(st.StoreMisses)
	c.lbHits = Counter(st.LBHits)
	c.victimHits = Counter(st.VictimHits)
	c.retries = Counter(st.Retries)
	c.mshrStalls = Counter(st.MSHRStalls)
	c.storeQFullEvt = Counter(st.StoreQFullEvt)
	c.writebacks = Counter(st.Writebacks)
	return c.CheckInvariants()
}

func importLines(dst *map[uint64]struct{}, lines []uint64) {
	*dst = nil
	if len(lines) != 0 {
		m := make(map[uint64]struct{}, len(lines))
		for _, line := range lines {
			m[line] = struct{}{}
		}
		*dst = m
	}
}

func (b *Bus) exportState() BusState {
	return BusState{
		FreeAt:     uint64(b.freeAt),
		Transfers:  b.transfers.Value(),
		BusyCycles: b.busyCycle.Value(),
		WaitCycles: b.waitCycle.Value(),
	}
}

func (b *Bus) importState(st BusState) {
	b.freeAt = Cycle(st.FreeAt)
	b.transfers = Counter(st.Transfers)
	b.busyCycle = Counter(st.BusyCycles)
	b.waitCycle = Counter(st.WaitCycles)
}

func (c *LowerCache) exportState() *LevelState {
	return &LevelState{
		Array:      c.array.exportState(),
		DirtySpill: sortedLines(c.dirtySpill),
		Accesses:   c.accesses.Value(),
		Misses:     c.misses.Value(),
		Writebacks: c.writebacks.Value(),
	}
}

func (c *LowerCache) importState(st *LevelState) error {
	if err := c.array.importState(c.name(), st.Array); err != nil {
		return err
	}
	importLines(&c.dirtySpill, st.DirtySpill)
	c.accesses = Counter(st.Accesses)
	c.misses = Counter(st.Misses)
	c.writebacks = Counter(st.Writebacks)
	return nil
}

// ExportState captures the hierarchy's mutable state. The lower level
// is filed under "l2" beside the chip bus in the SRAM organization and
// under "dram" in the DRAM organization.
func (s *System) ExportState() SystemState {
	st := SystemState{
		L1:     s.L1.exportState(),
		Memory: MemoryState{Accesses: s.Memory.accesses.Value(), Writebacks: s.Memory.writebacks.Value()},
		MemBus: s.MemBus.exportState(),
	}
	if s.ChipBus != nil {
		cb := s.ChipBus.exportState()
		st.L2, st.ChipBus = s.Lower.exportState(), &cb
	} else {
		st.DRAM = s.Lower.exportState()
	}
	return st
}

// ImportState restores state exported from a hierarchy built with the
// same SystemConfig. Every array geometry and structure capacity is
// validated before it is overwritten, so a snapshot from a different
// configuration is rejected (possibly after partially restoring sibling
// structures — callers discard the target on error).
func (s *System) ImportState(st SystemState) error {
	sram := s.ChipBus != nil
	if (st.L2 != nil) != sram || (st.DRAM != nil) == sram {
		return fmt.Errorf("mem: snapshot L2/DRAM presence %v/%v, system has %v/%v",
			st.L2 != nil, st.DRAM != nil, sram, !sram)
	}
	if (st.ChipBus != nil) != sram {
		return fmt.Errorf("mem: snapshot chip bus presence %v, system has %v", st.ChipBus != nil, sram)
	}
	if err := s.L1.importState(st.L1); err != nil {
		return err
	}
	lower := st.DRAM
	if sram {
		lower = st.L2
		s.ChipBus.importState(*st.ChipBus)
	}
	if err := s.Lower.importState(lower); err != nil {
		return err
	}
	s.Memory.accesses = Counter(st.Memory.Accesses)
	s.Memory.writebacks = Counter(st.Memory.Writebacks)
	s.MemBus.importState(st.MemBus)
	return nil
}
