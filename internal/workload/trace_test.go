package workload

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hbcache/internal/durable"
	"hbcache/internal/isa"
)

// recordN encodes the first n instructions of a fresh generator stream.
func recordN(t *testing.T, bench string, seed, n uint64) *Trace {
	t.Helper()
	data, err := RecordTrace(bench, seed, n)
	if err != nil {
		t.Fatalf("RecordTrace(%s): %v", bench, err)
	}
	tr, err := OpenTrace(data)
	if err != nil {
		t.Fatalf("OpenTrace(%s): %v", bench, err)
	}
	return tr
}

func TestTraceReplayMatchesLiveGenerator(t *testing.T) {
	const n = 5000
	for _, bench := range BenchmarkNames() {
		tr := recordN(t, bench, 42, n)
		if tr.Count() != n {
			t.Fatalf("%s: recorded %d records, want %d", bench, tr.Count(), n)
		}
		hdr := tr.Header()
		if hdr.Benchmark != bench || hdr.Seed != 42 || hdr.Kind != TraceKind {
			t.Fatalf("%s: header %+v", bench, hdr)
		}
		gen := MustNew(bench, 42)
		if !reflect.DeepEqual(hdr.Regions, gen.Regions()) {
			t.Fatalf("%s: recorded regions differ from generator regions", bench)
		}
		r := tr.NewReader()
		if !reflect.DeepEqual(r.Regions(), gen.Regions()) {
			t.Fatalf("%s: reader regions differ from generator regions", bench)
		}
		for i := 0; i < n; i++ {
			want, _ := gen.Next()
			got, ok := r.Next()
			if !ok {
				t.Fatalf("%s: trace ended at %d, want %d records", bench, i, n)
			}
			if got != want {
				t.Fatalf("%s: inst %d replayed %+v, live %+v", bench, i, got, want)
			}
		}
		if got := r.Emitted(); got != n {
			t.Fatalf("%s: Emitted=%d after draining %d", bench, got, n)
		}
		// Past the end: (zero, false) forever, like an exhausted
		// isa.Reader.
		for i := 0; i < 3; i++ {
			if inst, ok := r.Next(); ok || inst != (isa.Inst{}) {
				t.Fatalf("%s: Next past end returned (%+v, %v)", bench, inst, ok)
			}
		}
	}
}

func TestTraceWarmMatchesGeneratorWarm(t *testing.T) {
	const n = 4000
	for _, bench := range BenchmarkNames() {
		// One record of slack so the post-Warm probe still has a live
		// instruction to compare.
		tr := recordN(t, bench, 7, n+1)
		r := tr.NewReader()
		gen := MustNew(bench, 7)
		ga := make([]uint64, n)
		gb := make([]uint64, n)
		ta := make([]uint64, n)
		tb := make([]uint64, n)
		gna, gnb := gen.Warm(n, ga, gb)
		tna, tnb := r.Warm(n, ta, tb)
		if gna != tna || gnb != tnb {
			t.Fatalf("%s: trace Warm reported (%d,%d), generator (%d,%d)", bench, tna, tnb, gna, gnb)
		}
		if !reflect.DeepEqual(ta[:tna], ga[:gna]) {
			t.Fatalf("%s: warm addresses diverge", bench)
		}
		if !reflect.DeepEqual(tb[:tnb], gb[:gnb]) {
			t.Fatalf("%s: warm branch outcomes diverge", bench)
		}
		// Warm advanced both streams identically: the next instruction
		// must still match.
		want, _ := gen.Next()
		got, ok := r.Next()
		if !ok || got != want {
			t.Fatalf("%s: post-Warm inst diverges: trace (%+v,%v), live %+v", bench, got, ok, want)
		}
	}
}

func TestTraceFillMatchesGeneratorFill(t *testing.T) {
	const n = 3000
	tr := recordN(t, "tomcatv", 9, n)
	r := tr.NewReader()
	gen := MustNew("tomcatv", 9)
	got := make([]isa.Inst, 1024)
	want := make([]isa.Inst, 1024)
	r.Fill(got)
	gen.Fill(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Fill diverges from generator Fill")
	}
	// A Fill crossing the end of the trace pads with zero Insts.
	tail := make([]isa.Inst, n)
	r.Fill(tail)
	live := n - 1024
	for i := 0; i < live; i++ {
		w, _ := gen.Next()
		if tail[i] != w {
			t.Fatalf("inst %d of tail diverges", 1024+i)
		}
	}
	for i := live; i < n; i++ {
		if tail[i] != (isa.Inst{}) {
			t.Fatalf("slot %d past end of trace not zero: %+v", i, tail[i])
		}
	}
	if r.Emitted() != n {
		t.Fatalf("Emitted=%d after exhausting %d-record trace", r.Emitted(), n)
	}
}

func TestTraceWarmStopsAtEnd(t *testing.T) {
	const n = 500
	tr := recordN(t, "su2cor", 3, n)
	r := tr.NewReader()
	addrs := make([]uint64, 2*n)
	branches := make([]uint64, 2*n)
	na, nb := r.Warm(2*n, addrs, branches)
	if r.Emitted() != n {
		t.Fatalf("Warm past end consumed %d, trace has %d", r.Emitted(), n)
	}
	gen := MustNew("su2cor", 3)
	wa := make([]uint64, n)
	wb := make([]uint64, n)
	wna, wnb := gen.Warm(n, wa, wb)
	if na != wna || nb != wnb {
		t.Fatalf("partial Warm reported (%d,%d), want (%d,%d)", na, nb, wna, wnb)
	}
}

func TestTraceStateRoundTrip(t *testing.T) {
	const n, skip = 2000, 731
	tr := recordN(t, "compress", 5, n)
	r := tr.NewReader()
	for i := 0; i < skip; i++ {
		r.Next()
	}
	st := r.ExportState()
	if st.N != skip || st.TraceDigest != tr.Digest() {
		t.Fatalf("exported state %+v", st)
	}
	fresh := tr.NewReader()
	if err := fresh.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	for i := 0; i < 100; i++ {
		want, wok := r.Next()
		got, gok := fresh.Next()
		if wok != gok || got != want {
			t.Fatalf("inst %d after restore diverges", skip+i)
		}
	}
}

func TestTraceImportStateRejectsMismatch(t *testing.T) {
	tr := recordN(t, "compress", 5, 100)
	other := recordN(t, "compress", 6, 100)
	r := tr.NewReader()
	if err := r.ImportState(other.NewReader().ExportState()); err == nil {
		t.Fatal("ImportState accepted a state from a different trace")
	}
	if err := r.ImportState(MustNew("compress", 5).ExportState()); err == nil {
		t.Fatal("ImportState accepted a generator state with no trace digest")
	}
	if err := r.ImportState(GeneratorState{TraceDigest: tr.Digest(), N: 101}); err == nil {
		t.Fatal("ImportState accepted a position beyond the trace")
	}
}

func TestTraceDigestIsContentAddress(t *testing.T) {
	a1, err := RecordTrace("li", 11, 300)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RecordTrace("li", 11, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecordTrace("li", 12, 300)
	if err != nil {
		t.Fatal(err)
	}
	ta1, _ := OpenTrace(a1)
	ta2, _ := OpenTrace(a2)
	tb, _ := OpenTrace(b)
	if ta1.Digest() != ta2.Digest() {
		t.Fatal("identical recordings produced different digests")
	}
	if ta1.Digest() == tb.Digest() {
		t.Fatal("different recordings share a digest")
	}
	if len(ta1.Digest()) != 64 || strings.ToLower(ta1.Digest()) != ta1.Digest() {
		t.Fatalf("digest %q is not lowercase hex sha-256", ta1.Digest())
	}
}

func TestTraceCorruptionClassified(t *testing.T) {
	data, err := RecordTrace("apsi", 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), data...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTraceCorrupt},
		{"short", data[:4], ErrTraceCorrupt},
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xFF; return b }), ErrTraceCorrupt},
		{"future version", mutate(func(b []byte) []byte { b[8] = 99; return b }), ErrTraceVersion},
		{"flipped payload byte", mutate(func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }), ErrTraceCorrupt},
		{"flipped checksum", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }), ErrTraceCorrupt},
		{"truncated", data[:len(data)-40], ErrTraceCorrupt},
		{"trailing garbage", append(append([]byte(nil), data...), 0xAB), ErrTraceCorrupt},
	}
	for _, tc := range cases {
		if _, err := OpenTrace(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestTraceWrappingRegionRejected pins that a header region whose end
// overflows the address space fails to open: replay would sweep it
// without end. A region ending exactly at 2^64-1 still opens.
func TestTraceWrappingRegionRejected(t *testing.T) {
	open := func(r RegionInfo) error {
		data, err := NewTraceWriter("apsi", 1, []RegionInfo{{Name: "heap", Base: 1 << 20, Bytes: 1 << 20}, r}).Bytes()
		if err != nil {
			t.Fatal(err)
		}
		_, err = OpenTrace(data)
		return err
	}
	if err := open(RegionInfo{Name: "wrap", Base: 1<<64 - 4096, Bytes: 8192}); !errors.Is(err, ErrTraceCorrupt) {
		t.Errorf("wrapping region: got %v, want ErrTraceCorrupt", err)
	}
	if err := open(RegionInfo{Name: "huge", Base: 64, Bytes: 1<<64 - 1}); !errors.Is(err, ErrTraceCorrupt) {
		t.Errorf("region longer than the address space: got %v, want ErrTraceCorrupt", err)
	}
	if err := open(RegionInfo{Name: "top", Base: 1<<64 - 4096, Bytes: 4095}); err != nil {
		t.Errorf("region ending at the top of the address space: %v", err)
	}
}

func TestTraceKindMismatch(t *testing.T) {
	w := NewTraceWriter("apsi", 1, nil)
	w.header.Kind = "hbcache-trace-v0"
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrace(data); !errors.Is(err, ErrTraceKind) {
		t.Fatalf("got %v, want ErrTraceKind", err)
	}
}

func TestTraceFileRoundTripAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ear.trace")
	data, err := RecordTrace("apsi", 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := TraceFileDigest(path)
	if err != nil {
		t.Fatal(err)
	}
	if digest != tr.Digest() {
		t.Fatalf("TraceFileDigest %q != Digest %q", digest, tr.Digest())
	}

	// Corrupt the file in place: opening must classify, quarantine to
	// *.corrupt, and bump the process-wide counter.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	before := TracesQuarantined()
	if _, err := OpenTraceFile(path); !errors.Is(err, ErrTraceCorrupt) {
		t.Fatalf("corrupt file: got %v, want ErrTraceCorrupt", err)
	}
	if got := TracesQuarantined(); got != before+1 {
		t.Fatalf("TracesQuarantined=%d, want %d", got, before+1)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt original still present: %v", err)
	}

	if _, err := OpenTraceFile(filepath.Join(dir, "missing.trace")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got %v, want os.ErrNotExist", err)
	}
}

func TestTraceWriterRejectsUnencodable(t *testing.T) {
	w := NewTraceWriter("x", 0, nil)
	if err := w.Add(isa.Inst{Op: isa.Op(isa.NumOps)}); err == nil {
		t.Fatal("accepted out-of-range op")
	}
	if err := w.Add(isa.Inst{Dst: isa.NumLogicalRegs}); err == nil {
		t.Fatal("accepted out-of-range register")
	}
	if err := w.Add(isa.Inst{Src1: -2}); err == nil {
		t.Fatal("accepted register below NoReg")
	}
}

func TestTraceCompactEncoding(t *testing.T) {
	const n = 10000
	data, err := RecordTrace("pmake", 2, n)
	if err != nil {
		t.Fatal(err)
	}
	// The format's reason to exist: far denser than in-memory Insts
	// (40 bytes each). Typical records land around 6-9 bytes.
	if perInst := float64(len(data)) / n; perInst > 12 {
		t.Fatalf("encoding averages %.1f bytes/inst, want ≤ 12", perInst)
	}
}
