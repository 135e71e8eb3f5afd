// Package snapshot provides versioned, checksummed simulation
// checkpoints. An envelope wraps an arbitrary JSON payload with a
// format version, a kind discriminator (so a machine snapshot is never
// mistaken for some future artifact sharing the container), and a
// SHA-256 over everything else, making torn writes and bit rot
// detectable before a run resumes from them.
//
// The file-level helpers share the result cache's durability contract
// through internal/durable: writes are fsynced and renamed into place,
// so neither a killed process nor a power loss leaves a half-written
// snapshot where Load will find it; reads that fail verification
// quarantine the file to *.corrupt — preserved for postmortem, out of
// every future Load's way — and are counted, so a run never silently
// resumes from bad state.
// Both paths carry fault-injection sites (fault.SiteSnapshotRead /
// SiteSnapshotWrite) for chaos testing.
//
// The package deliberately knows nothing about what it stores: sim owns
// the machine-state payload, snapshot owns integrity and durability.
package snapshot

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"hbcache/internal/durable"
	"hbcache/internal/fault"
)

// Format is the envelope layout version. Bump it when the envelope
// itself (not a payload) changes incompatibly; older files then fail
// with ErrVersion instead of being misparsed.
const Format = 1

// Sentinel errors returned by Decode/Load; all of them quarantine the
// file in Load. Use errors.Is: they arrive wrapped with detail.
var (
	// ErrCorrupt marks undecodable bytes or a checksum mismatch.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrVersion marks an envelope from an incompatible format version.
	ErrVersion = errors.New("snapshot: format version mismatch")
	// ErrKind marks a valid envelope holding the wrong kind of payload.
	ErrKind = errors.New("snapshot: kind mismatch")
)

// Envelope is the serialized container. Payload stays raw so the
// checksum covers the exact bytes that were sealed, independent of how
// the payload type round-trips through JSON.
type Envelope struct {
	Format  int             `json:"format"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
	// Sum is the hex SHA-256 of the envelope encoded with Sum empty.
	Sum string `json:"sum"`
}

// sum computes the envelope's checksum. Envelope is a plain struct, so
// encoding/json emits fields in declaration order and the encoding is
// deterministic.
func (e Envelope) sum() (string, error) {
	e.Sum = ""
	b, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:]), nil
}

// quarantined counts snapshots quarantined process-wide.
var quarantined atomic.Int64

// Quarantined reports how many snapshot files this process has
// quarantined to *.corrupt.
func Quarantined() int64 { return quarantined.Load() }

// Encode seals payload of the given kind into envelope bytes.
func Encode(kind string, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding %s payload: %w", kind, err)
	}
	e := Envelope{Format: Format, Kind: kind, Payload: raw}
	if e.Sum, err = e.sum(); err != nil {
		return nil, err
	}
	return json.Marshal(e)
}

// Decode verifies envelope bytes and unmarshals their payload, which
// must be of the given kind. Errors wrap ErrCorrupt, ErrVersion, or
// ErrKind.
func Decode(data []byte, kind string, payload any) error {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if e.Format != Format {
		return fmt.Errorf("%w: file format %d, this binary reads %d", ErrVersion, e.Format, Format)
	}
	want, err := e.sum()
	if err != nil {
		return err
	}
	if e.Sum != want {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if e.Kind != kind {
		return fmt.Errorf("%w: file holds %q, want %q", ErrKind, e.Kind, kind)
	}
	if err := json.Unmarshal(e.Payload, payload); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	return nil
}

// Save seals payload and writes it to path with durable.WriteFile. A
// KindCorrupt fault rule at SiteSnapshotWrite mangles the
// bytes after the checksum is computed, so the file lands on disk
// genuinely self-inconsistent — what a torn write produces.
func Save(path, kind string, payload any, faults *fault.Registry) error {
	if err := faults.Fire(context.Background(), fault.SiteSnapshotWrite); err != nil {
		return err
	}
	b, err := Encode(kind, payload)
	if err != nil {
		return err
	}
	faults.Mangle(fault.SiteSnapshotWrite, b)
	return durable.WriteFile(path, append(b, '\n'))
}

// Load reads, verifies, and decodes the snapshot at path. A missing
// file returns an error satisfying errors.Is(err, os.ErrNotExist). A
// file that fails verification (corrupt, wrong version, wrong kind) is
// quarantined — renamed to path+".corrupt", counted in Quarantined —
// and the verification error is returned, so the caller falls back to
// a cold start exactly once while the bad bytes survive for triage.
func Load(path, kind string, payload any, faults *fault.Registry) error {
	if err := faults.Fire(context.Background(), fault.SiteSnapshotRead); err != nil {
		return err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := Decode(b, kind, payload); err != nil {
		durable.Quarantine(path, &quarantined)
		return err
	}
	return nil
}
