package mem

import "testing"

func TestWritePolicyString(t *testing.T) {
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Error("policy names wrong")
	}
	if WritePolicy(9).String() == "" {
		t.Error("unknown policy must render")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	next := &FixedLatency{Cycles: 20}
	cfg := DefaultL1Config(64, 1, PortConfig{Kind: IdealPorts, Count: 4})
	cfg.Assoc = 2 // one set of two 32-byte lines
	c, err := NewL1Cache(cfg, next)
	if err != nil {
		t.Fatal(err)
	}
	// Write-allocate a line and dirty it.
	c.EnqueueStore(0x00)
	c.DrainStores(0)
	if c.DirtyLines() != 1 {
		t.Fatalf("dirty lines = %d, want 1", c.DirtyLines())
	}
	// Fill two more lines into the same set: the dirty line is evicted
	// and must be written back exactly once.
	c.TryLoad(100, 0x20)
	c.TryLoad(200, 0x40)
	if c.Writebacks() != 1 {
		t.Errorf("L1 writebacks = %d, want 1", c.Writebacks())
	}
	if next.Writebacks() != 1 {
		t.Errorf("next level received %d writebacks, want 1", next.Writebacks())
	}
	if c.DirtyLines() != 0 {
		t.Errorf("dirty lines after eviction = %d, want 0", c.DirtyLines())
	}
}

func TestWriteBackCleanEvictionIsFree(t *testing.T) {
	next := &FixedLatency{Cycles: 20}
	cfg := DefaultL1Config(64, 1, PortConfig{Kind: IdealPorts, Count: 4})
	c, _ := NewL1Cache(cfg, next)
	// Only loads: evictions of clean lines cost nothing.
	for i := uint64(0); i < 8; i++ {
		c.TryLoad(Cycle(100*i+100), i*0x20)
	}
	if c.Writebacks() != 0 || next.Writebacks() != 0 {
		t.Error("clean evictions must not write back")
	}
}

func TestWriteThroughSendsStoresDown(t *testing.T) {
	next := &FixedLatency{Cycles: 20}
	cfg := DefaultL1Config(32<<10, 1, PortConfig{Kind: IdealPorts, Count: 4})
	cfg.Policy = WriteThrough
	c, _ := NewL1Cache(cfg, next)
	// Warm the line so the store hits, then drain it.
	r, _ := c.TryLoad(0, 0x100)
	c.EnqueueStore(0x100)
	c.DrainStores(r.Done + 1)
	if next.Writebacks() != 1 {
		t.Errorf("write-through store must reach the next level, got %d", next.Writebacks())
	}
	if c.DirtyLines() != 0 {
		t.Error("write-through must not leave dirty lines")
	}
}

func TestWriteBackTrafficOccupiesBus(t *testing.T) {
	// A dirty L1 eviction must consume processor-to-L2 bus bandwidth
	// and so delay a subsequent miss.
	cfg := DefaultSRAMSystem(64, 1, PortConfig{Kind: IdealPorts, Count: 4}, false)
	cfg.L1.Bytes = 64
	cfg.L1.Assoc = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.L1.EnqueueStore(0x00)
	sys.L1.DrainStores(0)
	busBusyBefore := sys.ChipBus.BusyCycles()
	sys.L1.TryLoad(1000, 0x20)
	sys.L1.TryLoad(2000, 0x40) // evicts the dirty line
	if sys.ChipBus.BusyCycles() <= busBusyBefore+6 {
		// two 32-byte fills (3 cycles each) plus a 32-byte writeback
		t.Errorf("chip bus busy cycles = %d, writeback traffic missing", sys.ChipBus.BusyCycles())
	}
	if sys.Lower.Accesses() == 0 {
		t.Error("hierarchy not exercised")
	}
}

func TestL2WriteBackPropagatesToMemory(t *testing.T) {
	up, _ := NewBus(2.5, 5)
	memBus, _ := NewBus(1.6, 5)
	memory, _ := NewMemory(60, memBus)
	// Tiny L2: 2 sets x 2 ways of 64-byte lines.
	l2, err := newL2(L2Config{Bytes: 256, LineBytes: 64, Assoc: 2, HitCycles: 10}, up, memory)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a line via a write-back from above.
	l2.WriteBack(0, 0x000, 32)
	if l2.Writebacks() != 0 {
		t.Fatal("no L2 eviction yet")
	}
	// Displace it: lines 0x000, 0x080, 0x100 share set 0.
	l2.Access(100, 0x080, 32)
	l2.Access(200, 0x100, 32)
	if l2.Writebacks() != 1 {
		t.Errorf("L2 writebacks = %d, want 1", l2.Writebacks())
	}
	if memory.Writebacks() != 1 {
		t.Errorf("memory received %d writebacks, want 1", memory.Writebacks())
	}
}

func TestDRAMWriteBackKeepsRowsDirty(t *testing.T) {
	memBus, _ := NewBus(1.6, 5)
	memory, _ := NewMemory(60, memBus)
	// Tiny DRAM: 2 sets x 2 ways of 512-byte rows.
	d, err := newDRAM(DRAMConfig{Bytes: 2048, RowBytes: 512, Assoc: 2, HitCycles: 6}, memory)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteBack(0, 0x0000, 512)
	// Rows 0x0000, 0x0800, 0x1000 share set 0 (row index % 2).
	d.Access(100, 0x0800, 512)
	d.Access(200, 0x1000, 512)
	if d.Writebacks() != 1 {
		t.Errorf("DRAM writebacks = %d, want 1", d.Writebacks())
	}
	if memory.Writebacks() != 1 {
		t.Errorf("memory received %d writebacks, want 1", memory.Writebacks())
	}
}
