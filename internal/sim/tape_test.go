package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"hbcache/internal/isa"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// TestPrewarmCacheTape pins the stream tape on every workload and on a
// trace-backed stream. Through one cache at batch 1, a stream's first
// run drains its prefix and reads its own source, the second (another
// cache geometry) hits the prefix, records the tape and reads it, a
// repeat of the first reads it, and a config with longer windows reads
// past its end. Every Result equals its cold run, stream hash and
// invariant checker included; the counters are exact; and the machine
// state after each run's prewarm, the recorder's and the readers'
// included, equals a cold run's.
func TestPrewarmCacheTape(t *testing.T) {
	dup := mem.PortConfig{Kind: mem.DuplicatePorts}
	streams := map[string]Config{}
	for _, bench := range metamorphicBenches(t) {
		streams[bench] = prewarmCacheConfig(bench, 16<<10, dup, true, PrewarmFastForward)
	}
	streams["trace"] = traceFor(t, t.TempDir(), prewarmCacheConfig("li", 16<<10, dup, true, PrewarmFastForward))
	for name, base := range streams {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			other := base
			other.Memory = mem.DefaultSRAMSystem(64<<10, 1, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false)
			longer := base
			longer.WarmupInsts, longer.MeasureInsts = 3_000, 12_000
			if longer.WarmupInsts+longer.MeasureInsts <= base.WarmupInsts+base.MeasureInsts+tapeSlack {
				t.Fatal("the longer config must read past the tape")
			}
			runs := []Config{base, other, base, longer}

			opts := RunOpts{Hash: true, Check: true}
			shared := opts
			shared.Prewarm = NewPrewarmCache()
			for i, cfg := range runs {
				got, err := RunContext(context.Background(), cfg, shared)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := RunContext(context.Background(), cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, cold) {
					t.Errorf("run %d: tape-fed result differs from a cold run", i)
				}
			}
			want := PrewarmStats{Hits: 3, Misses: 1, WarmFills: 3, WarmApplies: 1, TapeFills: 1, TapeReads: 3}
			if st := shared.Prewarm.Stats(); st != want {
				t.Errorf("stats = %+v; want %+v", st, want)
			}
			tp := shared.Prewarm.entries[0].tape
			if tp == nil || uint64(tp.len()) != base.WarmupInsts+base.MeasureInsts+tapeSlack {
				t.Fatal("the cached prefix holds no full-length tape")
			}
			perInst := float64(tp.bytes()) / float64(tp.len())
			t.Logf("tape: %d records, %.2f B/inst", tp.len(), perInst)
			if perInst > 9 {
				t.Errorf("tape takes %.2f B/inst, want at most 9", perInst)
			}

			fresh := RunOpts{Prewarm: NewPrewarmCache()}
			for i, cfg := range runs {
				got, taped := tapePrewarmedState(t, cfg, fresh)
				if want, _ := tapePrewarmedState(t, cfg, RunOpts{}); got != want {
					t.Errorf("run %d: machine state after prewarm differs from a cold one", i)
				}
				if taped != (i > 0) {
					t.Errorf("run %d: tape attached = %v, want %v", i, taped, i > 0)
				}
			}
		})
	}
}

// tapePrewarmedState is prewarmedState, also reporting whether the
// run's core was pointed at a stream tape.
func tapePrewarmedState(t *testing.T, cfg Config, opts RunOpts) (string, bool) {
	t.Helper()
	b, err := NewBatch(context.Background(), []Config{cfg}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !b.Step() {
		t.Fatal(b.lanes[0].err)
	}
	m := b.lanes[0].m
	return machineState(t, m), m.tape != nil && m.tape.t != nil
}

// TestTapeEligibility pins who may read a tape: a lone lane with a
// prewarm cache, in fast-forward mode, exhaustive, not resumed and
// without snapshot options. Ring lanes read their stream's ring.
func TestTapeEligibility(t *testing.T) {
	cache := NewPrewarmCache()
	cfg := prewarmCacheConfig("gcc", 16<<10, mem.PortConfig{Kind: mem.DuplicatePorts}, false, "").WithDefaults()
	sampled := cfg
	sampled.Sample = &SampleSpec{IntervalInsts: 3_000, WindowInsts: 500, WarmupInsts: 500}
	timing := cfg
	timing.PrewarmMode = PrewarmTiming
	for _, c := range []struct {
		name string
		cfg  Config
		opts RunOpts
		want bool
	}{
		{"lone", cfg, RunOpts{Prewarm: cache}, true},
		{"no cache", cfg, RunOpts{}, false},
		{"sampled", sampled, RunOpts{Prewarm: cache}, false},
		{"timing", timing, RunOpts{Prewarm: cache}, false},
		{"resumed", cfg, RunOpts{Prewarm: cache, Resume: "x"}, false},
		{"snapshot", cfg, RunOpts{Prewarm: cache, SnapshotPath: "x", SnapshotAt: 1}, false},
		{"snapshot on abort", cfg, RunOpts{Prewarm: cache, SnapshotOnAbort: "x"}, false},
	} {
		if got := tapeEligible(c.cfg, c.opts); got != c.want {
			t.Errorf("%s: eligible = %v, want %v", c.name, got, c.want)
		}
	}
	b, err := NewBatch(context.Background(), []Config{cfg, cfg}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := range b.lanes {
		if b.lanes[i].m.tape != nil {
			t.Errorf("ring lane %d has a tape reader", i)
		}
	}
}

// sliceSource is a workload.Source over a fixed instruction slice whose
// state is its position, for driving recordTape with any records.
type sliceSource struct {
	workload.Source
	insts []isa.Inst
	pos   int
}

func (s *sliceSource) Next() (isa.Inst, bool) {
	if s.pos >= len(s.insts) {
		return isa.Inst{}, false
	}
	s.pos++
	return s.insts[s.pos-1], true
}

func (s *sliceSource) Warm(n int, addrs, branches []uint64) (na, nb int) {
	s.pos = min(s.pos+n, len(s.insts))
	return 0, 0
}

func (s *sliceSource) ExportState() workload.GeneratorState {
	return workload.GeneratorState{N: uint64(s.pos)}
}

func (s *sliceSource) ImportState(st workload.GeneratorState) error {
	s.pos = int(st.N)
	return nil
}

// tapeRecordBytes is how FuzzTape reads one isa.Inst from its input.
const tapeRecordBytes = 8 + 1 + 3*2 + 8 + 1 + 1

// tapeInsts decodes data into instructions, tapeRecordBytes each.
func tapeInsts(data []byte) []isa.Inst {
	var insts []isa.Inst
	for ; len(data) >= tapeRecordBytes; data = data[tapeRecordBytes:] {
		le := binary.LittleEndian
		insts = append(insts, isa.Inst{
			PC:     le.Uint64(data),
			Op:     isa.Op(data[8]),
			Dst:    int16(le.Uint16(data[9:])),
			Src1:   int16(le.Uint16(data[11:])),
			Src2:   int16(le.Uint16(data[13:])),
			Addr:   le.Uint64(data[15:]),
			Size:   data[23],
			Taken:  data[24]&1 != 0,
			Kernel: data[24]&2 != 0,
		})
	}
	return insts
}

// tapeBytes encodes insts the way tapeInsts decodes them.
func tapeBytes(insts ...isa.Inst) []byte {
	var out []byte
	le := binary.LittleEndian
	for _, in := range insts {
		out = le.AppendUint64(out, in.PC)
		out = append(out, byte(in.Op))
		out = le.AppendUint16(out, uint16(in.Dst))
		out = le.AppendUint16(out, uint16(in.Src1))
		out = le.AppendUint16(out, uint16(in.Src2))
		out = le.AppendUint64(out, in.Addr)
		out = append(out, in.Size)
		var f byte
		if in.Taken {
			f |= 1
		}
		if in.Kernel {
			f |= 2
		}
		out = append(out, f)
	}
	return out
}

// holdable reports whether the tape format can hold inst.
func holdable(inst isa.Inst) bool {
	ok := func(r int16) bool { return r >= -1 && r <= 126 }
	return inst.Op < 16 && ok(inst.Dst) && ok(inst.Src1) && ok(inst.Src2)
}

// FuzzTape pins the tape format on arbitrary records: the tape ends
// exactly at the first record it cannot hold, decoding gives every
// record before it back exactly, and a reader over the tape goes on
// from the source with the very next record, so it yields the whole
// input.
func FuzzTape(f *testing.F) {
	f.Add(tapeBytes(
		isa.Inst{PC: 0x400000, Op: isa.Load, Dst: 2, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x1000, Size: 8},
		isa.Inst{PC: 0x400004, Op: isa.Branch, Dst: isa.NoReg, Src1: 2, Src2: isa.NoReg, Taken: true, Kernel: true},
		isa.Inst{PC: 0x400000, Op: isa.Store, Dst: isa.NoReg, Src1: 3, Src2: 4, Addr: 0x2000, Size: 8},
	))
	f.Add(tapeBytes(
		isa.Inst{PC: ^uint64(3), Op: isa.IntALU, Dst: 126, Src1: -1, Src2: 63},
		isa.Inst{PC: 0, Op: 15, Addr: ^uint64(0), Size: 255},  // wrapping PC, top op
		isa.Inst{PC: 4, Op: isa.Nop, Size: 1},                 // a size without an address
		isa.Inst{PC: 8, Op: isa.Load, Addr: 1 << 40, Size: 1}, // a high word, the size again
		isa.Inst{PC: 12, Op: isa.Store, Addr: 1<<40 | 8, Size: 8},
		isa.Inst{PC: 16, Op: 16}, // cut: op 16
		isa.Inst{PC: 20, Op: isa.Load, Addr: 8, Size: 8},
	))
	f.Add(tapeBytes(
		isa.Inst{PC: 4, Op: isa.IntMul, Dst: 1},
		isa.Inst{PC: 8, Op: isa.IntMul, Dst: 127}, // cut: register 127
	))
	f.Add(tapeBytes(isa.Inst{Op: isa.FPAdd, Src2: -2})) // cut at the first record
	f.Fuzz(func(t *testing.T, data []byte) {
		insts := tapeInsts(data)
		cut := len(insts)
		for i, in := range insts {
			if !holdable(in) {
				cut = i
				break
			}
		}
		src := &sliceSource{insts: insts}
		tp, _, err := recordTape(src, src.ExportState(), uint64(len(insts)), 1<<30, new(atomic.Bool))
		if err != nil {
			t.Fatal(err)
		}
		if tp.len() != cut {
			t.Fatalf("tape holds %d records, want the cut at %d", tp.len(), cut)
		}
		if src.pos != 0 {
			t.Fatalf("source left at %d, want rewound to 0", src.pos)
		}
		if tp.end.N != uint64(cut) {
			t.Fatalf("tape end state at %d, want %d", tp.end.N, cut)
		}
		r := &tapeReader{src: src}
		r.attach(tp)
		for i, want := range insts {
			got, ok := r.Next()
			if !ok || got != want {
				t.Fatalf("record %d (cut at %d): got %+v (ok %v), want %+v", i, cut, got, ok, want)
			}
		}
		if _, ok := r.Next(); ok {
			t.Fatal("reader went on past the source's end")
		}
	})
}

// TestTapeCutEndState pins a cut tape's end state on a real source:
// recorded past an unholdable record, the tape ends before it, and
// its end state is the generator's after the records it holds.
func TestTapeCutEndState(t *testing.T) {
	gen := workload.MustNew("gcc", 1)
	const at = 1000
	src := &cuttingSource{Source: gen, at: at}
	start := gen.ExportState()
	tp, _, err := recordTape(src, start, 5_000, 1<<30, new(atomic.Bool))
	if err != nil {
		t.Fatal(err)
	}
	if tp.len() != at {
		t.Fatalf("tape holds %d records, want %d", tp.len(), at)
	}
	ref := workload.MustNew("gcc", 1)
	for i := 0; i < at; i++ {
		ref.Next()
	}
	if got, want := fmt.Sprint(tp.end), fmt.Sprint(ref.ExportState()); got != want {
		t.Error("cut tape's end state differs from the generator's after its records")
	}
	if got, want := fmt.Sprint(gen.ExportState()), fmt.Sprint(start); got != want {
		t.Error("recording did not rewind the source")
	}
}

// cuttingSource hands out one record the tape cannot hold, at position
// at.
type cuttingSource struct {
	workload.Source
	at uint64
}

func (c *cuttingSource) Next() (isa.Inst, bool) {
	inst, ok := c.Source.Next()
	if c.Emitted() == c.at+1 {
		inst.Op = 16
	}
	return inst, ok
}
