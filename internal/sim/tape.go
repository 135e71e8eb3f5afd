package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"hbcache/internal/isa"
	"hbcache/internal/workload"
)

// A stream tape is a compact recording of the instructions a stream
// produces after its prewarm prefix: the timed window of a run, which
// PrewarmCache keeps with the prefix so that later runs of the stream
// replay it instead of generating it again (see PrewarmCache.feedTape).
// It stores the fields of isa.Inst apart, so a record costs what it
// uses: one 32-bit word always, holding the op, the flags (taken,
// kernel, "PC follows on", memory) and the three register numbers; a
// PC only where it does not follow on from the previous record's by 4;
// and per memory reference the address's low 32 bits, its high 32 bits
// only where they differ from the previous reference's, and the access
// size only where it differs. The nine synthetic workloads come to
// 5.5 to 7 bytes per instruction, against 32 for a raw isa.Inst.
//
// A record the format cannot hold — an op of 16 or more, or a register
// outside [-1, 126] — ends the tape. Generated streams and verified
// traces never produce one; a tape cut short only hands over to its
// source sooner.

// tapeSlack is the cushion of instructions a tape records past a run's
// warmup and measure windows. The core fetches ahead of retirement by
// at most its reorder window plus one instruction held back on a full
// load/store queue, and never down a wrong path (dispatch stops at a
// mispredicted branch until it resolves), so a tape cut exactly at
// warmup+measure would hand the last window's worth of fetches to the
// live source. 4096 is far more than any configured window; a reader
// that does run past it still continues exactly, from the source.
const tapeSlack = 4096

// Record word layout: the op in the low four bits, then the flags,
// then the registers, seven bits each, plus one.
const (
	tapeOp     = 0x0f
	tapeTaken  = 1 << 4
	tapeKernel = 1 << 5
	tapeSeqPC  = 1 << 6 // PC is the previous record's plus 4
	tapeMem    = 1 << 7 // the record carries an address and size
	tapeNewHi  = 1 << 8 // the address's high word is on the tape
	tapeNewSz  = 1 << 9 // the access size is on the tape

	tapeDst  = 10
	tapeSrc1 = 17
	tapeSrc2 = 24
	tapeReg  = 0x7f
)

// tape is one recording. It is immutable once recorded and shared by
// every run that reads it.
type tape struct {
	words []uint32 // one per record
	pcs   []uint64 // one per record whose PC does not follow on
	addrs []uint32 // each memory reference's low address word
	his   []uint32 // its high word, where it changed
	sizes []byte   // its size, where it changed

	// The last record's PC, address high word and size, while recording.
	pc   uint64
	hi   uint32
	size byte

	// end is the source's state after the last record: a reader that
	// runs past the tape imports it and continues from its source.
	end workload.GeneratorState
}

// len is the number of records.
func (t *tape) len() int { return len(t.words) }

// bytes is the tape's encoded size.
func (t *tape) bytes() int {
	return 4*len(t.words) + 8*len(t.pcs) + 4*len(t.addrs) + 4*len(t.his) + len(t.sizes)
}

// tapeRegBits is register r's field on a tape, placed at shift; ok is
// false for a register the format cannot hold.
func tapeRegBits(r int16, shift uint) (w uint32, ok bool) {
	if r < -1 || r >= tapeReg {
		return 0, false
	}
	return uint32(r+1) << shift, true
}

// add appends inst and reports true, or appends nothing and reports
// false when the format cannot hold it.
func (t *tape) add(inst *isa.Inst) bool {
	dst, ok1 := tapeRegBits(inst.Dst, tapeDst)
	src1, ok2 := tapeRegBits(inst.Src1, tapeSrc1)
	src2, ok3 := tapeRegBits(inst.Src2, tapeSrc2)
	if inst.Op > tapeOp || !ok1 || !ok2 || !ok3 {
		return false
	}
	w := uint32(inst.Op) | dst | src1 | src2
	if inst.Taken {
		w |= tapeTaken
	}
	if inst.Kernel {
		w |= tapeKernel
	}
	if inst.PC == t.pc+4 {
		w |= tapeSeqPC
	} else {
		t.pcs = append(t.pcs, inst.PC)
	}
	t.pc = inst.PC
	if inst.Addr != 0 || inst.Size != 0 {
		w |= tapeMem
		t.addrs = append(t.addrs, uint32(inst.Addr))
		if hi := uint32(inst.Addr >> 32); hi != t.hi {
			w |= tapeNewHi
			t.his = append(t.his, hi)
			t.hi = hi
		}
		if inst.Size != t.size {
			w |= tapeNewSz
			t.sizes = append(t.sizes, inst.Size)
			t.size = inst.Size
		}
	}
	t.words = append(t.words, w)
	return true
}

// clip drops the slack append left behind, so a kept tape holds only
// its records.
func (t *tape) clip() {
	t.words = clipped(t.words)
	t.pcs = clipped(t.pcs)
	t.addrs = clipped(t.addrs)
	t.his = clipped(t.his)
	t.sizes = clipped(t.sizes)
}

func clipped[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append([]T(nil), s...)
}

// recordTape records up to n instructions of src, which stands at
// state start, and rewinds src to start. The tape ends early where a
// recorded trace ends or at a record the format cannot hold; its end
// state is then the source's after the records it holds (start
// advanced with Warm, exact by Source's contract). It returns nil
// when the tape would outgrow maxBytes, and a nil tape with stopped
// set once stop is raised (polled every runChunk records), leaving src
// wherever it stood.
func recordTape(src workload.Source, start workload.GeneratorState, n uint64, maxBytes int, stop *atomic.Bool) (t *tape, stopped bool, err error) {
	// Every record takes at least four bytes.
	if n > uint64(maxBytes/4) {
		return nil, false, nil
	}
	t = &tape{words: make([]uint32, 0, n)}
	cut := false
	for k := uint64(0); k < n; k++ {
		if k%runChunk == 0 {
			if stop.Load() {
				return nil, true, nil
			}
			if t.bytes() > maxBytes {
				return nil, false, src.ImportState(start)
			}
		}
		inst, ok := src.Next()
		if !ok {
			break
		}
		if !t.add(&inst) {
			cut = true
			break
		}
	}
	if t.bytes() > maxBytes {
		return nil, false, src.ImportState(start)
	}
	if cut {
		// The record that did not fit has been read: rebuild the
		// state after the ones that did.
		if err := src.ImportState(start); err != nil {
			return nil, false, err
		}
		var addrs, branches [warmChunk]uint64
		for left := t.len(); left > 0; {
			chunk := min(left, warmChunk)
			src.Warm(chunk, addrs[:], branches[:])
			left -= chunk
		}
	}
	t.end = src.ExportState()
	if err := src.ImportState(start); err != nil {
		return nil, false, err
	}
	t.clip()
	return t, false, nil
}

// tapeReader is a lone lane's isa.Reader. Until a tape is attached it
// reads the lane's own source; with one it replays the tape, and past
// the tape's end it imports the tape's end state into the source and
// reads on from there, so the stream is the source's either way.
type tapeReader struct {
	src workload.Source
	t   *tape // the attached tape until its end state is imported

	words             []uint32
	pcs               []uint64
	addrs, his        []uint32
	sizes             []byte
	i, pi, ai, hi, si int

	pc   uint64
	addr uint64 // high word of the last address
	size byte
}

// attach makes r replay t from its first record.
func (r *tapeReader) attach(t *tape) {
	*r = tapeReader{src: r.src, t: t, words: t.words, pcs: t.pcs, addrs: t.addrs, his: t.his, sizes: t.sizes}
}

// Next implements isa.Reader.
func (r *tapeReader) Next() (isa.Inst, bool) {
	i := r.i
	if i >= len(r.words) {
		return r.live()
	}
	w := r.words[i]
	inst := isa.Inst{
		Op:     isa.Op(w & tapeOp),
		Dst:    int16(w>>tapeDst&tapeReg) - 1,
		Src1:   int16(w>>tapeSrc1&tapeReg) - 1,
		Src2:   int16(w>>tapeSrc2&tapeReg) - 1,
		Taken:  w&tapeTaken != 0,
		Kernel: w&tapeKernel != 0,
	}
	if w&tapeSeqPC != 0 {
		r.pc += 4
	} else {
		r.pc = r.pcs[r.pi]
		r.pi++
	}
	inst.PC = r.pc
	if w&tapeMem != 0 {
		if w&tapeNewHi != 0 {
			r.addr = uint64(r.his[r.hi]) << 32
			r.hi++
		}
		if w&tapeNewSz != 0 {
			r.size = r.sizes[r.si]
			r.si++
		}
		inst.Addr, inst.Size = r.addr|uint64(r.addrs[r.ai]), r.size
		r.ai++
	}
	r.i = i + 1
	return inst, true
}

// live reads the source, first moving it to the end of the tape just
// replayed.
func (r *tapeReader) live() (isa.Inst, bool) {
	if r.t != nil {
		if err := r.src.ImportState(r.t.end); err != nil {
			// Unreachable: the state was exported from this stream.
			panic(fmt.Sprintf("sim: stream tape end state: %v", err))
		}
		r.t = nil
	}
	return r.src.Next()
}

// NewTapeReader records the next n instructions of src onto a stream
// tape exactly as PrewarmCache records a stream's timed window, leaves
// src where it stood, and returns a reader that replays the tape and
// then continues from src, with the tape's size in bytes. It exists
// to time and size the tape apart from a simulation.
func NewTapeReader(src workload.Source, n uint64) (isa.Reader, int, error) {
	t, _, err := recordTape(src, src.ExportState(), n, math.MaxInt, new(atomic.Bool))
	if err != nil {
		return nil, 0, err
	}
	r := &tapeReader{src: src}
	r.attach(t)
	return r, t.bytes(), nil
}
