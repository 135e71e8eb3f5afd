package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

type payload struct {
	Name  string   `json:"name"`
	Count uint64   `json:"count"`
	Data  []uint64 `json:"data"`
}

func TestSealOpenRoundTrip(t *testing.T) {
	in := payload{Name: "gcc", Count: 42, Data: []uint64{1, 2, 3}}
	b, err := Seal("test-kind", in)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(b, '\n') || !json.Valid(b) {
		t.Fatalf("record is not one line of JSON: %s", b)
	}
	for _, rec := range [][]byte{b, append(bytes.Clone(b), '\n')} {
		var out payload
		if err := Open(rec, "test-kind", &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip mangled payload: %+v", out)
		}
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	b, err := Seal("test-kind", payload{Name: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte; the checksum must catch it.
	tampered := bytes.Clone(b)
	tampered[bytes.Index(tampered, []byte("gcc"))] = 'x'
	var out payload
	if err := Open(tampered, "test-kind", &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered bytes opened: err=%v", err)
	}
	// A sum in upper case names the same digest but is not the stored
	// text: hex decoding would accept it, Open must not.
	i := bytes.LastIndex(b, []byte(sumField)) + len(sumField)
	upper := bytes.Clone(b)
	copy(upper[i:], bytes.ToUpper(upper[i:i+sumLen]))
	if bytes.Equal(upper, b) {
		t.Fatal("sum has no hex letter to raise")
	}
	if err := Open(upper, "test-kind", &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("upper-case sum opened: err=%v", err)
	}
	// Whitespace around a record is damage, not padding.
	if err := Open(append(bytes.Clone(b), ' '), "test-kind", &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record with trailing space opened: err=%v", err)
	}
}

func TestOpenRejectsWrongKindAndVersion(t *testing.T) {
	b, err := Seal("kind-a", payload{})
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Open(b, "kind-b", &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong kind accepted: err=%v", err)
	}
	// A future format version must fail closed, not misparse, even
	// when its sum is consistent.
	future := []byte(strings.Replace(string(b), `"format":1`, `"format":9`, 1))
	n := len(future) - len(recordTail) - sumLen
	copy(future[n:], recordSum(future[:n]))
	if err := Open(future, "kind-a", &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future format accepted: err=%v", err)
	}
}

// TestOpenReadsEnvelopeV1: snapshot and journal files written before
// Seal existed held a JSON envelope whose sum was the SHA-256 of the
// envelope encoded with an empty sum. For a record that is exactly the
// bytes Open sums, so those files keep opening.
func TestOpenReadsEnvelopeV1(t *testing.T) {
	type envelope struct {
		Format  int             `json:"format"`
		Kind    string          `json:"kind"`
		Payload json.RawMessage `json:"payload"`
		Sum     string          `json:"sum"`
	}
	in := payload{Name: "li", Count: 7, Data: []uint64{4}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	e := envelope{Format: 1, Kind: "test-kind", Payload: raw}
	unsummed, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(unsummed)
	e.Sum = hex.EncodeToString(s[:])
	old, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := Seal("test-kind", in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, sealed) {
		t.Fatalf("envelope v1 %s\ndiffers from the sealed record %s", old, sealed)
	}
	var out payload
	if err := Open(append(old, '\n'), "test-kind", &out); err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("envelope v1 opened as %+v, %v", out, err)
	}
}

// FuzzOpen throws arbitrary bytes at the verification path: it must
// reject or accept, never panic, and anything it accepts must reseal
// to a record that opens to the same payload.
func FuzzOpen(f *testing.F) {
	seed, err := Seal("fuzz-kind", payload{Name: "gcc", Count: 3, Data: []uint64{9}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"format":1,"kind":"fuzz-kind","payload":{},"sum":"00"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out payload
		if err := Open(data, "fuzz-kind", &out); err != nil {
			return
		}
		again, err := Seal("fuzz-kind", out)
		if err != nil {
			t.Fatalf("accepted payload does not reseal: %v", err)
		}
		var out2 payload
		if err := Open(again, "fuzz-kind", &out2); err != nil || !reflect.DeepEqual(out, out2) {
			t.Fatalf("resealed bytes open as %+v, %v; want %+v", out2, err, out)
		}
	})
}
