// Package durable is the one crash-safe file primitive behind every
// artefact hbcache keeps on disk: result-cache entries, machine
// snapshots and binary traces. WriteFile makes a file appear whole or
// not at all, even across a power loss; Quarantine moves a file that
// failed its reader's verification out of every later read's way.
//
// The package knows nothing about formats or checksums. Each caller
// verifies its own bytes and keeps its own quarantine counter; fault
// injection stays at the callers too, so chaos site names do not move.
package durable

import (
	"os"
	"path/filepath"
	"sync/atomic"
)

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
