package chaos

// Injectable filesystem faults, threaded under internal/wal via its FS seam.
// Production server-side WiFi deployments report disk misbehaviour — full
// volumes, failing fsyncs, latency spikes — as a dominant operational pain;
// this layer reproduces those faults deterministically so the crowd-server's
// degraded-mode state machine (healthy → read-only → recovering) is driven by
// scripted disk weather in tests instead of waiting for a real outage.
//
// A FaultFS wraps a real (or other) wal.FS and applies the currently-set
// FSFault plan to every file it has opened, including files opened before the
// plan was set — so a test can boot a healthy server, then break the disk
// under its feet mid-ingest, then heal it and watch recovery.

import (
	"errors"
	"sync"
	"syscall"
	"time"

	"crowdwifi/internal/wal"
)

// ErrInjectedWrite and friends are distinguishable from real disk errors.
var (
	// ErrInjectedWrite models a generic failed write.
	ErrInjectedWrite = errors.New("chaos: injected write error")
	// ErrInjectedSync models an fsync the kernel refused.
	ErrInjectedSync = errors.New("chaos: injected fsync error")
)

// ErrNoSpace is the injected ENOSPC, wrapped so errors.Is(err,
// syscall.ENOSPC) holds — exactly what a full volume returns.
var ErrNoSpace = &injectedErr{msg: "chaos: injected disk full", under: syscall.ENOSPC}

type injectedErr struct {
	msg   string
	under error
}

func (e *injectedErr) Error() string { return e.msg }
func (e *injectedErr) Unwrap() error { return e.under }

// FSFault is one disk-weather plan. The zero value injects nothing.
type FSFault struct {
	// FailWrites fails the next N writes (shared across files) with
	// WriteErr, shortening each to TornBytes first. 0 disables; a negative
	// value fails every write until the plan changes.
	FailWrites int
	// TornBytes is how many bytes of a failing write actually land before
	// the error — a short write tearing a frame in half. Negative means the
	// whole buffer lands (the error is reported after a complete write);
	// 0 means nothing lands.
	TornBytes int
	// WriteErr overrides the error failed writes return (default
	// ErrInjectedWrite). Use ErrNoSpace for disk-full semantics.
	WriteErr error
	// FailSyncs fails the next N fsyncs with SyncErr. 0 disables; negative
	// fails every fsync until the plan changes.
	FailSyncs int
	// SyncErr overrides the error failed fsyncs return (default
	// ErrInjectedSync).
	SyncErr error
	// WriteDelay stalls every write (healthy or failing) — a latency spike,
	// not an error.
	WriteDelay time.Duration
	// FailTruncates fails the next N truncates with WriteErr — blocking the
	// WAL's torn-tail self-heal, the deepest fault mode. 0 disables;
	// negative fails every truncate until the plan changes.
	FailTruncates int
	// FailRemoves fails the next N segment removals with WriteErr — a
	// compaction that cannot delete what it covers. 0 disables; negative
	// fails every removal until the plan changes.
	FailRemoves int
}

// FaultFS wraps a wal.FS with a mutable fault plan. All methods are safe for
// concurrent use. The zero value is not usable; construct with NewFaultFS.
type FaultFS struct {
	next wal.FS

	mu    sync.Mutex
	fault FSFault

	writesFailed int
	syncsFailed  int
	hold         func() // the next fsync runs it (HoldSync)
}

// NewFaultFS wraps next (nil selects the real filesystem) with an initially
// empty fault plan.
func NewFaultFS(next wal.FS) *FaultFS {
	if next == nil {
		next = wal.OSFS{}
	}
	return &FaultFS{next: next}
}

// SetFault installs a new plan, replacing the previous one. SetFault(FSFault{})
// heals the disk.
func (fs *FaultFS) SetFault(f FSFault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.fault = f
}

// Counts reports how many writes and fsyncs were failed so far.
func (fs *FaultFS) Counts() (writesFailed, syncsFailed int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writesFailed, fs.syncsFailed
}

// HoldSync makes the next fsync wait until release is called. That fsync
// takes its outcome from the plan first, then closes held and waits, so a plan
// set while it waits is the next fsync's. A test uses it to keep one durable
// append in flight while others queue behind it. release is idempotent.
func (fs *FaultFS) HoldSync() (held <-chan struct{}, release func()) {
	h, r := make(chan struct{}), make(chan struct{})
	fs.mu.Lock()
	fs.hold = func() { close(h); <-r }
	fs.mu.Unlock()
	return h, sync.OnceFunc(func() { close(r) })
}

// takeWrite consumes one write from the plan, returning the injected error
// (nil for a healthy write), the bytes to land first, and the stall.
func (fs *FaultFS) takeWrite(n int) (err error, land int, delay time.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delay = fs.fault.WriteDelay
	if fs.fault.FailWrites == 0 {
		return nil, n, delay
	}
	if fs.fault.FailWrites > 0 {
		fs.fault.FailWrites--
	}
	fs.writesFailed++
	err = fs.fault.WriteErr
	if err == nil {
		err = ErrInjectedWrite
	}
	land = fs.fault.TornBytes
	if land < 0 || land > n {
		land = n
	}
	return err, land, delay
}

// takeTruncate consumes one truncate from the plan.
func (fs *FaultFS) takeTruncate() error { return fs.takeFailure(&fs.fault.FailTruncates) }

// takeRemove consumes one removal from the plan.
func (fs *FaultFS) takeRemove() error { return fs.takeFailure(&fs.fault.FailRemoves) }

// takeFailure consumes one call from the plan's count of failing ones,
// returning WriteErr while the count lasts.
func (fs *FaultFS) takeFailure(left *int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if *left == 0 {
		return nil
	}
	if *left > 0 {
		*left--
	}
	if fs.fault.WriteErr != nil {
		return fs.fault.WriteErr
	}
	return ErrInjectedWrite
}

// takeSync consumes one fsync from the plan, then waits out the hold
// HoldSync set, if any.
func (fs *FaultFS) takeSync() error {
	fs.mu.Lock()
	hold := fs.hold
	fs.hold = nil
	var err error
	if fs.fault.FailSyncs != 0 {
		if fs.fault.FailSyncs > 0 {
			fs.fault.FailSyncs--
		}
		fs.syncsFailed++
		err = fs.fault.SyncErr
		if err == nil {
			err = ErrInjectedSync
		}
	}
	fs.mu.Unlock()
	if hold != nil {
		hold()
	}
	return err
}

// Create implements wal.FS.
func (fs *FaultFS) Create(path string) (wal.File, error) {
	f, err := fs.next.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, next: f}, nil
}

// OpenAppend implements wal.FS.
func (fs *FaultFS) OpenAppend(path string) (wal.File, error) {
	f, err := fs.next.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, next: f}, nil
}

// SyncDir implements wal.FS. Directory syncs ride the same fsync plan as
// file syncs — a disk refusing fsyncs refuses them everywhere.
func (fs *FaultFS) SyncDir(dir string) error {
	if err := fs.takeSync(); err != nil {
		return err
	}
	return fs.next.SyncDir(dir)
}

// Remove implements wal.FS.
func (fs *FaultFS) Remove(path string) error {
	if err := fs.takeRemove(); err != nil {
		return err
	}
	return fs.next.Remove(path)
}

var _ wal.FS = (*FaultFS)(nil)

// faultFile applies the owning FaultFS's live plan to one file.
type faultFile struct {
	fs   *FaultFS
	next wal.File
}

func (f *faultFile) Write(p []byte) (int, error) {
	inj, land, delay := f.fs.takeWrite(len(p))
	if delay > 0 {
		time.Sleep(delay)
	}
	if inj == nil {
		return f.next.Write(p)
	}
	n := 0
	if land > 0 {
		// Land the torn prefix for real, so the on-disk tail genuinely
		// holds a half-written frame until the WAL heals it.
		var werr error
		n, werr = f.next.Write(p[:land])
		if werr != nil {
			return n, werr
		}
	}
	return n, inj
}

func (f *faultFile) Sync() error {
	if err := f.fs.takeSync(); err != nil {
		return err
	}
	return f.next.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.takeTruncate(); err != nil {
		return err
	}
	return f.next.Truncate(size)
}

func (f *faultFile) Close() error { return f.next.Close() }
