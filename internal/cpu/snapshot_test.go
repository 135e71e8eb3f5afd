package cpu

import (
	"fmt"
	"testing"

	"hbcache/internal/isa"
)

func TestRunAndRunCycles(t *testing.T) {
	insts := make([]isa.Inst, 100)
	for i := range insts {
		insts[i] = isa.Inst{Op: isa.IntALU, Dst: int16(2 + i%60)}
	}
	c := newCPU(t, insts, &fakeMem{latency: 1})
	s := c.Run(40)
	if s.Retired < 40 {
		t.Errorf("Run(40) retired %d, want >= 40", s.Retired)
	}
	before := c.Stats().Cycles
	c.RunCycles(5)
	if c.Stats().Cycles != before+5 && !c.Done() {
		t.Errorf("RunCycles(5) advanced %d cycles", c.Stats().Cycles-before)
	}
	c.Run(0) // run to completion
	if !c.Done() {
		t.Error("Run(0) must drain the trace")
	}
	if uint64(c.Now()) != c.Stats().Cycles {
		t.Errorf("Now() = %d, Cycles = %d", c.Now(), c.Stats().Cycles)
	}
}

func TestOccupancyMeans(t *testing.T) {
	insts := make([]isa.Inst, 200)
	for i := range insts {
		if i%3 == 0 {
			insts[i] = isa.Inst{Op: isa.Load, Dst: int16(2 + i%50), Addr: uint64(i * 8), Size: 8}
		} else {
			insts[i] = isa.Inst{Op: isa.IntALU, Dst: int16(2 + i%50)}
		}
	}
	c := newCPU(t, insts, &fakeMem{latency: 10})
	s := run(t, c)
	if s.MeanWindowOccupancy() <= 0 || s.MeanWindowOccupancy() > 64 {
		t.Errorf("mean window occupancy = %.1f", s.MeanWindowOccupancy())
	}
	if s.MeanLSQOccupancy() < 0 || s.MeanLSQOccupancy() > 32 {
		t.Errorf("mean LSQ occupancy = %.1f", s.MeanLSQOccupancy())
	}
	var zero Stats
	if zero.MeanWindowOccupancy() != 0 || zero.MeanLSQOccupancy() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

func TestSnapshot(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.IntDiv, Dst: 2}, // long-latency head
		{Op: isa.Load, Dst: 3, Addr: 0x100, Size: 8},
		{Op: isa.IntALU, Dst: 4, Src1: 2}, // waits on the divide
	}
	c := newCPU(t, insts, &fakeMem{latency: 5})
	for i := 0; i < 4; i++ {
		c.Step()
	}
	snap := c.Snapshot()
	if snap.Cycle != 4 {
		t.Errorf("snapshot cycle = %d, want 4", snap.Cycle)
	}
	if snap.WindowOccupancy != 3 {
		t.Errorf("window occupancy = %d, want 3", snap.WindowOccupancy)
	}
	if snap.LSQOccupancy != 1 {
		t.Errorf("LSQ occupancy = %d, want 1", snap.LSQOccupancy)
	}
	if snap.HeadOp != isa.IntDiv {
		t.Errorf("head op = %v, want idiv", snap.HeadOp)
	}
	total := snap.Waiting + snap.Executing + snap.WantPort + snap.Done
	if total != snap.WindowOccupancy {
		t.Errorf("state counts (%d) must sum to occupancy (%d)", total, snap.WindowOccupancy)
	}
	// Empty-machine snapshot.
	empty := newCPU(t, nil, &fakeMem{latency: 1})
	if s := empty.Snapshot(); s.WindowOccupancy != 0 || s.HeadOp != isa.Nop {
		t.Errorf("empty snapshot = %+v", s)
	}
}

func TestPredictorCounters(t *testing.T) {
	p := NewPredictor(16)
	p.Predict(0)
	p.Predict(4)
	if p.Predictions() != 2 {
		t.Errorf("predictions = %d, want 2", p.Predictions())
	}
	var c Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 6 {
		t.Errorf("counter = %d, want 6", c.Value())
	}
}

// TestPredictorWarmCopy pins CaptureWarm/ApplyWarm: a fresh predictor
// of the captured geometry that applies the capture ends in the state
// of one trained by the same Warm calls, and a predictor of any other
// geometry refuses it untouched.
func TestPredictorWarmCopy(t *testing.T) {
	train := func(p *Predictor) *Predictor {
		for i := uint64(0); i < 5000; i++ {
			p.Warm(i*i%4093*4, i%3 != 0)
		}
		return p
	}
	var w WarmPredictor
	train(NewGshare(512, 8)).CaptureWarm(&w)
	got, want := NewGshare(512, 8), train(NewGshare(512, 8))
	if !got.ApplyWarm(&w) {
		t.Fatal("same geometry refused the capture")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Error("applied predictor differs from a trained one")
	}
	for name, p := range map[string]*Predictor{
		"entries":      NewGshare(1024, 8),
		"history bits": NewGshare(512, 6),
		"not gshare":   NewPredictor(512),
	} {
		fresh := fmt.Sprint(p)
		if p.ApplyWarm(&w) || fmt.Sprint(p) != fresh {
			t.Errorf("%s: another geometry took the capture", name)
		}
	}
}

func TestForwardingFromStoreBufferViaProbe(t *testing.T) {
	// A load whose matching store has already drained to the fake store
	// buffer must forward from it (fwd path through StoreBufferProbe).
	insts := []isa.Inst{
		{Op: isa.Store, Addr: 0x500, Size: 8},
		{Op: isa.IntALU, Dst: 2},
		{Op: isa.IntALU, Dst: 3},
		{Op: isa.IntALU, Dst: 4},
		{Op: isa.IntALU, Dst: 5},
		{Op: isa.IntALU, Dst: 6},
		{Op: isa.Load, Dst: 7, Addr: 0x500, Size: 8},
	}
	f := &fakeMem{latency: 40}
	s := run(t, newCPU(t, insts, f))
	if s.LoadForwarded != 1 {
		t.Errorf("forwarded = %d, want 1 (from store buffer)", s.LoadForwarded)
	}
	if len(f.loads) != 0 {
		t.Errorf("cache saw %d loads, want 0", len(f.loads))
	}
}

func TestForwardingBlockedByUnresolvedStore(t *testing.T) {
	// The store's address register depends on a slow divide; a matching
	// younger load must wait for it rather than read stale data.
	insts := []isa.Inst{
		{Op: isa.IntDiv, Dst: 2},
		{Op: isa.Store, Addr: 0x700, Size: 8, Src1: 2},
		{Op: isa.Load, Dst: 3, Addr: 0x700, Size: 8},
	}
	f := &fakeMem{latency: 2}
	s := run(t, newCPU(t, insts, f))
	// The load can only complete after the divide (35 cycles) resolves
	// the store.
	if s.Cycles < 35 {
		t.Errorf("cycles = %d; load must have waited for the store's address", s.Cycles)
	}
	if s.LoadForwarded != 1 {
		t.Errorf("forwarded = %d, want 1 once the store resolved", s.LoadForwarded)
	}
	if len(f.loads) != 0 {
		t.Errorf("cache saw %d loads, want 0 (forwarded)", len(f.loads))
	}
}
