// Package durable is the one crash-safe file primitive and the one
// checksummed record behind every artefact hbcache keeps on disk or
// sends between processes: result-cache entries and /v1/store bodies,
// machine snapshots, sweep-journal lines and binary traces. WriteFile
// makes a file appear whole or not at all, even across a power loss;
// Seal and Open wrap a JSON payload in a record whose SHA-256 covers
// the exact stored bytes; Quarantine moves a file that failed its
// reader's verification out of every later read's way.
//
// Traces keep their own SHA-256 trailer (their digest keys results);
// every JSON artefact goes through Seal and Open. Each caller keeps its
// own quarantine counter and fault-injection sites, so chaos site
// names and metrics do not move.
package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// ErrCorrupt marks a record that fails Open: torn or damaged bytes, a
// checksum mismatch, another format version or another kind. It
// arrives wrapped with detail; test it with errors.Is.
var ErrCorrupt = errors.New("durable: corrupt record")

// A sealed record is one line of compact JSON,
//
//	{"format":1,"kind":"<kind>","payload":<payload>,"sum":"<hex>"}
//
// where <hex> is the lower-case hex SHA-256 of every other byte of the
// record, in order. The payload is stored exactly as sealed, so the
// sum covers the bytes on disk, not a re-encoding of them. Change the
// format number with the layout: a record of another format fails
// Open instead of being misparsed.
const (
	sumField   = `,"sum":"`
	recordTail = `"}`
	sumLen     = 2 * sha256.Size
)

// recordHead is the fixed prefix of a record of the given kind.
func recordHead(kind string) []byte {
	return fmt.Appendf(nil, `{"format":1,"kind":%q,"payload":`, kind)
}

// recordSum is the hex checksum of a record whose bytes before the sum
// are body.
func recordSum(body []byte) []byte {
	h := sha256.New()
	h.Write(body)
	h.Write([]byte(recordTail))
	return hex.AppendEncode(nil, h.Sum(nil))
}

// Seal encodes payload as compact JSON and wraps it in a record of the
// given kind. The record holds no newline; writers that store records
// as lines append one.
func Seal(kind string, payload any) ([]byte, error) {
	p, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("durable: encoding %s payload: %w", kind, err)
	}
	b := append(recordHead(kind), p...)
	b = append(b, sumField...)
	b = append(b, recordSum(b)...)
	return append(b, recordTail...), nil
}

// Open verifies a record sealed with the given kind, with or without
// one trailing newline, and decodes its payload into payload. The sum
// is compared as text, byte for byte: hex decoding would also accept
// upper case, letting a flipped case bit verify. Every failure wraps
// ErrCorrupt.
func Open(data []byte, kind string, payload any) error {
	data = bytes.TrimSuffix(data, []byte("\n"))
	head := recordHead(kind)
	n := len(data) - len(recordTail) - sumLen
	if n < len(head)+len(sumField) || !bytes.HasSuffix(data, []byte(recordTail)) {
		return fmt.Errorf("%w: not a whole %s record", ErrCorrupt, kind)
	}
	body := data[:n]
	if !bytes.Equal(data[n:n+sumLen], recordSum(body)) {
		return fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, kind)
	}
	if !bytes.HasPrefix(body, head) || !bytes.HasSuffix(body, []byte(sumField)) {
		return fmt.Errorf("%w: not a format 1 %s record", ErrCorrupt, kind)
	}
	if err := json.Unmarshal(body[len(head):len(body)-len(sumField)], payload); err != nil {
		return fmt.Errorf("%w: %s payload: %v", ErrCorrupt, kind, err)
	}
	return nil
}

// WriteFile writes data to path atomically and durably: it creates the
// parent directory, writes a temp file beside path, fsyncs and closes
// it, renames it over path, then fsyncs the parent directory. A crash
// at any point leaves either the old file or the complete new one at
// path; after WriteFile returns, the new file survives a power loss.
// A crash before the rename can leave a *.tmp-* file behind, which no
// reader treats as an entry.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making the entries created or renamed in
// it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Quarantine renames a file that failed verification to
// path+".corrupt", preserved for postmortem, and adds one to n. If the
// rename fails the file is removed: a corrupt file must never stay
// where the next read finds it. Either way the next read of path is a
// clean os.ErrNotExist miss.
func Quarantine(path string, n *atomic.Int64) {
	n.Add(1)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		os.Remove(path)
	}
}
