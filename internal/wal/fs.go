package wal

// The filesystem seam: every write-side operation the log performs on its
// data directory goes through an FS, so tests (and the chaos harness) can
// inject disk faults — short writes, ENOSPC, failing fsyncs — underneath the
// WAL without touching the real filesystem or the WAL's own logic. Reads
// (recovery, replay) stay on the real filesystem: the fault modes that matter
// operationally are on the ingest path.

import "os"

// File is the slice of *os.File the log's append path needs. Implementations
// may fail or shorten any call to model disk faults.
type File interface {
	// Write appends p; a short write (n < len(p) with an error) leaves a
	// torn tail the log must heal.
	Write(p []byte) (int, error)
	// Sync flushes to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes — the log's torn-tail self-heal.
	Truncate(size int64) error
	// Close releases the handle.
	Close() error
}

// FS opens, removes and syncs segment files and directories. The zero value
// of Options selects OSFS.
type FS interface {
	// Create opens a fresh segment for exclusive append.
	Create(path string) (File, error)
	// OpenAppend reopens an existing segment for append.
	OpenAppend(path string) (File, error)
	// SyncDir fsyncs a directory so entry creations/removals survive a
	// crash.
	SyncDir(dir string) error
	// Remove deletes a segment compaction no longer needs.
	Remove(path string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// Create implements FS.
func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
}

// OpenAppend implements FS.
func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
