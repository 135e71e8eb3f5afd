package workload

import (
	"errors"
	"os"
	"testing"

	"hbcache/internal/durable"
)

// FuzzTraceDecode throws arbitrary bytes at the trace opener. The
// contract under fuzz: OpenTrace either returns a classified error
// (ErrTraceCorrupt / ErrTraceVersion / ErrTraceKind) or yields a Trace
// that replays to completion without panicking and with a stable
// digest. The corpus seeds from real recorded fixtures so mutations
// explore the interesting frontier — mostly-valid files with flipped
// framing, lengths, deltas, and checksums.
func FuzzTraceDecode(f *testing.F) {
	for _, seed := range []struct {
		bench string
		n     uint64
	}{
		{"compress", 0},
		{"compress", 1},
		{"compress", 64},
		{"vcs", 257},
		{"database", 1000},
	} {
		data, err := RecordTrace(seed.bench, 1, seed.n)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("HBCTRACE"))
	f.Add([]byte("HBCTRACE\x01\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := OpenTrace(data)
		if err != nil {
			if !errors.Is(err, ErrTraceCorrupt) && !errors.Is(err, ErrTraceVersion) && !errors.Is(err, ErrTraceKind) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		// A trace that opened must replay fully without panicking:
		// OpenTrace's validation pass is the only gate between
		// adversarial bytes and the simulator core.
		r := tr.NewReader()
		var n uint64
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			n++
			if n > tr.Count() {
				t.Fatalf("reader produced more than the %d records in the header", tr.Count())
			}
		}
		if n != tr.Count() {
			t.Fatalf("reader produced %d records, header counts %d", n, tr.Count())
		}
		if len(tr.Digest()) != 64 {
			t.Fatalf("digest %q is not hex sha-256", tr.Digest())
		}
	})
}

// FuzzTraceDecode's file-level twin is cheaper to exercise once than to
// fuzz: quarantine must never fire for valid bytes.
func TestOpenTraceFileKeepsValidFiles(t *testing.T) {
	data, err := RecordTrace("compress", 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ok.trace"
	if err := durable.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	before := TracesQuarantined()
	if _, err := OpenTraceFile(path); err != nil {
		t.Fatal(err)
	}
	if TracesQuarantined() != before {
		t.Fatal("valid file was quarantined")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("valid file moved: %v", err)
	}
}
