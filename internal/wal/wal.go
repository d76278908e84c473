// Package wal is the crowd-server's durability layer: an append-only,
// segmented write-ahead log of length+CRC32C-framed typed records, plus
// atomically-renamed snapshot files that let old segments be compacted away.
//
// The log is crash-tolerant by construction. Appends go to the newest
// segment, a group of records at a time, and under the default policy a
// group is on stable storage, with one fsync, before the call returns.
// Recovery scans the final segment and truncates at the first damaged frame —
// a torn write from a crash loses at most the records after the tear, never
// the ability to boot. Damage in an earlier, sealed segment cannot be healed
// by truncation and fails recovery loudly.
package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"crowdwifi/internal/frame"
	"crowdwifi/internal/obs/trace"
)

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs every group it appends: an acknowledged record is
	// durable. The default, and the only policy crowdwifi-server runs.
	SyncAlways SyncPolicy = iota
	// SyncOff never fsyncs; the OS flushes at its leisure. A process crash
	// loses nothing (the kernel has the writes); a machine crash may lose
	// the unflushed tail. Tests and the bench build state with it.
	SyncOff
)

const (
	defaultSegmentBytes = 8 << 20 // Options.SegmentBytes ≤ 0
	segmentSuffix       = ".seg"
	segmentPrefix       = "wal-"
	// directBytes is the record size from which an append writes the
	// caller's data as it is, behind its header, instead of copying it into
	// a frame. No measurement placed it: the store's records are a few KB or
	// less (one write each) or a batch of megabytes (no copy), so any cut
	// between those behaves the same.
	directBytes = 64 << 10
)

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates to a fresh segment before a group that would take
	// the active one past this size (≤ 0 selects 8 MiB). A group is never
	// split, so a segment overruns it by at most the one group it starts
	// with.
	SegmentBytes int64
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// NextSeq numbers the first record when the directory holds no
	// segments — pass snapshotSeq+1 so replay offsets stay aligned after
	// compaction. Ignored when segments exist; 0 means start at 1.
	NextSeq uint64
	// Metrics receives append/fsync/rotation/recovery observations.
	Metrics Metrics
	// FS is the write-side filesystem seam (nil selects OSFS). Tests and
	// the chaos harness inject disk faults here.
	FS FS
}

// Record is one log entry: what Replay streams, and what AppendGroup takes
// (which numbers it, ignoring Seq).
type Record struct {
	Seq  uint64
	Kind byte
	Data []byte
}

// OpenInfo reports what Open found on disk.
type OpenInfo struct {
	// Segments is the number of live segment files.
	Segments int
	// TruncatedBytes is how much torn tail Open cut from the final segment.
	TruncatedBytes int64
	// NextSeq is the sequence number the next append will receive.
	NextSeq uint64
}

type segment struct {
	path  string
	first uint64
}

// Log is a segmented append-only record log. All methods are safe for
// concurrent use; Replay must run before concurrent appends begin.
type Log struct {
	mu     sync.Mutex
	dir    string
	opts   Options
	fs     FS
	segs   []segment // sorted by first; the last one is active
	f      File      // active segment
	size   int64     // bytes in the active segment
	next   uint64    // sequence number of the next append
	dirty  bool      // unsynced writes pending
	torn   bool      // a failed append left bytes past size; heal before writing
	closed bool
	buf    []byte // a group's small frames and large headers, reused
}

func segmentName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segmentPrefix, first, segmentSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix), 10, 64)
	return seq, err == nil
}

// Open creates or reopens the log in dir. Reopening scans the final segment
// and truncates it at the first damaged frame, so a crash mid-append (a torn
// write) costs the torn record, not the boot.
func Open(dir string, opts Options) (*Log, OpenInfo, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, OpenInfo{}, err
	}
	removeStaleTemps(dir)

	segs, err := listSegments(dir)
	if err != nil {
		return nil, OpenInfo{}, err
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS, segs: segs}
	if l.fs == nil {
		l.fs = OSFS{}
	}

	var info OpenInfo
	if len(l.segs) == 0 {
		l.next = opts.NextSeq
		if l.next == 0 {
			l.next = 1
		}
		if err := l.createSegmentLocked(); err != nil {
			return nil, OpenInfo{}, err
		}
	} else {
		// Recover the active (final) segment: count its records and cut any
		// torn tail.
		active := l.segs[len(l.segs)-1]
		buf, err := os.ReadFile(active.path)
		if err != nil {
			return nil, OpenInfo{}, err
		}
		valid, n, _ := frame.Walk(buf, nil)
		if valid < int64(len(buf)) {
			info.TruncatedBytes = int64(len(buf)) - valid
			if err := os.Truncate(active.path, valid); err != nil {
				return nil, OpenInfo{}, err
			}
			l.opts.Metrics.truncated.Add(uint64(info.TruncatedBytes))
		}
		f, err := l.fs.OpenAppend(active.path)
		if err != nil {
			return nil, OpenInfo{}, err
		}
		if info.TruncatedBytes > 0 {
			// Make the truncation itself durable before trusting the tail.
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, OpenInfo{}, err
			}
		}
		l.f = f
		l.size = valid
		l.next = active.first + uint64(n)
	}
	info.Segments = len(l.segs)
	info.NextSeq = l.next
	return l, info, nil
}

// removeStaleTemps clears half-written snapshot temp files left by a crash
// mid-snapshot; the rename never happened, so they are garbage.
func removeStaleTemps(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, m := range matches {
		_ = os.Remove(m)
	}
}

// createSegmentLocked starts a fresh segment whose first record will be
// l.next. Requires l.mu held (or exclusive access during Open).
func (l *Log) createSegmentLocked() error {
	path := filepath.Join(l.dir, segmentName(l.next))
	f, err := l.fs.Create(path)
	if err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.size = 0
	l.segs = append(l.segs, segment{path: path, first: l.next})
	return nil
}

// rotateLocked seals the active segment (synced so its contents are fixed)
// and opens a new one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.createSegmentLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.opts.Metrics.fsyncs.Inc()
	return nil
}

// Append writes one typed record and returns its sequence number: a group of
// one (see AppendGroup).
func (l *Log) Append(kind byte, data []byte) (uint64, error) {
	return l.AppendGroup(context.Background(), []Record{{Kind: kind, Data: data}})
}

// AppendGroup writes recs in order, numbered from the sequence it returns, and
// under SyncAlways fsyncs them once: when it returns nil, every one of them is
// on stable storage. A failed write or fsync cuts the segment back to where
// the group began, so none of it replays and the log stays what the last
// acknowledged group left. When ctx carries a trace span, the append and its
// fsync appear as child spans — the fsync is the dominant cost of durable
// ingestion, so it gets its own.
func (l *Log) AppendGroup(ctx context.Context, recs []Record) (seq uint64, err error) {
	var size int64
	for _, r := range recs {
		if 1+len(r.Data) > MaxRecordBytes {
			return 0, ErrTooLarge
		}
		size += frame.Size(len(r.Data))
	}
	actx, span := trace.StartChild(ctx, "wal.append")
	defer func() { span.SetError(err); span.End() }()
	span.SetAttr("bytes", size)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log is closed")
	}
	if l.torn {
		// A previous append failed and its heal failed too: bytes past
		// l.size are garbage. Retry the heal before writing anything new;
		// while it keeps failing, every append fails fast and nothing makes
		// the tail worse.
		if err := l.healLocked(); err != nil {
			return 0, fmt.Errorf("wal: tail unhealed after failed append: %w", err)
		}
	}
	if l.size > 0 && l.size+size > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
		span.AddEvent("segment rotated")
	}
	if err = l.writeLocked(recs); err == nil {
		l.dirty = true
		if l.opts.Sync == SyncAlways {
			_, fspan := trace.StartChild(actx, "wal.fsync")
			err = l.syncLocked()
			fspan.SetError(err)
			fspan.End()
		}
	}
	if err != nil {
		// A frame may be partially on disk (a short write, ENOSPC mid-frame),
		// or whole but not durable, and the caller will NOT acknowledge it:
		// left there, it would double-apply on replay once the client
		// retries with a fresh append. Cut the file back to the last
		// acknowledged byte. When the heal fails too (the disk refuses
		// truncates), the torn flag keeps later appends off the garbage.
		event := "torn tail healed"
		if l.healLocked() != nil {
			event = "torn tail heal failed"
		}
		span.AddEvent(event)
		return 0, err
	}
	seq = l.next
	l.next += uint64(len(recs))
	l.size += size
	l.opts.Metrics.appends.Add(uint64(len(recs)))
	l.opts.Metrics.appendBytes.Add(uint64(size))
	span.SetAttr("seq", seq)
	return seq, nil
}

// writeLocked writes a group's frames to the active segment. Small records
// are framed together in the log's buffer, which is written out when it
// reaches directBytes, so it holds under twice that however large the group,
// and at the group's end; a large record is its header, written behind the
// frames buffered before it, and then the caller's data. A group of small
// records under directBytes in all is one write. Requires l.mu held.
func (l *Log) writeLocked(recs []Record) error {
	l.buf = l.buf[:0]
	for i, r := range recs {
		large := len(r.Data) >= directBytes
		if large {
			l.buf = frame.AppendHeader(l.buf, r.Kind, r.Data)
		} else {
			l.buf = frame.Append(l.buf, r.Kind, r.Data)
		}
		if !large && len(l.buf) < directBytes && i < len(recs)-1 {
			continue
		}
		if _, err := l.f.Write(l.buf); err != nil {
			return err
		}
		l.buf = l.buf[:0]
		if large {
			if _, err := l.f.Write(r.Data); err != nil {
				return err
			}
		}
	}
	return nil
}

// healLocked truncates the active segment back to l.size — the last byte
// covered by an acknowledged (or at least fully-framed) record — clearing the
// torn flag on success. Requires l.mu held.
func (l *Log) healLocked() error {
	if err := l.f.Truncate(l.size); err != nil {
		l.torn = true
		return err
	}
	l.torn = false
	l.opts.Metrics.heals.Inc()
	return nil
}

// KindProbe is the record kind reserved for durability probes. Probe records
// are invisible to Replay — they exist only to prove the disk accepts a
// write+fsync round trip — but they do consume sequence numbers.
const KindProbe byte = 0xFF

// Probe appends a tiny probe record, a group of one. A nil return means the
// full durable-append path — framing, write, fsync under SyncAlways, and any
// pending torn-tail heal — is working again; the degraded-mode state machine
// uses this to decide when a read-only server may start recovering.
func (l *Log) Probe(ctx context.Context) error {
	_, err := l.AppendGroup(ctx, []Record{{Kind: KindProbe, Data: []byte("probe")}})
	return err
}

// LastSeq returns the sequence number of the newest record (0 if none were
// ever appended and no snapshot advanced the numbering).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Stats is a point-in-time summary of the log's on-disk footprint, cheap
// enough to serve from a debug endpoint.
type Stats struct {
	// Segments is the number of live segment files (including the active one).
	Segments int
	// ActiveBytes is the size of the active (tail) segment.
	ActiveBytes int64
	// LastSeq is the sequence number of the newest record (0 if none).
	LastSeq uint64
}

// Stats reports the log's current segment count, active-segment size, and
// last sequence number.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Segments: len(l.segs), ActiveBytes: l.size, LastSeq: l.next - 1}
}

// Replay streams every record with seq > after, oldest first. Call it after
// Open and before concurrent appends begin. It walks the segments as
// IterateDir does (walk), but knows where the final one ends, Open having
// healed it: a final segment the snapshot covers is not read. Damage inside a
// sealed segment (a mid-log CRC mismatch) is unrecoverable and returns an
// error. So is a log that no longer holds record after+1 because its oldest
// segment starts later: the caller's snapshot is older than what compaction
// kept.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	next := l.next
	l.mu.Unlock()
	return walk(l.dir, segs, after, next, func(r Record) error {
		l.opts.Metrics.replayed.Inc()
		return fn(r)
	})
}

// CompactThrough removes segments whose records are all ≤ seq — typically
// the sequence captured by a snapshot. If the active segment is fully
// covered it is sealed first so it too can go; the log always keeps one
// active segment.
//
// A segment about to be removed is not synced. Once the next segment exists
// (createSegmentLocked syncs the directory), a covered segment is never read
// again: Open scans only the final segment, and Replay and IterateDir skip
// every segment whose records are all ≤ the snapshot they start from. So a
// crash that loses its removal and its unsynced pages leaves a file nobody
// reads. A covered segment that cannot be removed stays, and is synced
// before CompactThrough returns, as a rotation would have.
func (l *Log) CompactThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	var sealed File // the covered active segment, when it has unsynced writes
	if l.size > 0 && l.next-1 <= seq {
		old, dirty := l.f, l.dirty
		if err := l.createSegmentLocked(); err != nil {
			return err
		}
		l.dirty = false
		if dirty {
			sealed = old
		} else if err := old.Close(); err != nil {
			return err
		}
	}
	removed := 0
	for len(l.segs) > 1 && l.segs[1].first-1 <= seq {
		if err := l.fs.Remove(l.segs[0].path); err != nil && !os.IsNotExist(err) {
			break
		}
		l.segs = l.segs[1:]
		removed++
	}
	var err error
	if sealed != nil {
		if len(l.segs) > 1 {
			// Its removal, or an older one's, failed: it stays, so it must
			// hold what it says.
			if err = sealed.Sync(); err == nil {
				l.opts.Metrics.fsyncs.Inc()
			}
		}
		err = errors.Join(err, sealed.Close())
	}
	if removed > 0 {
		err = errors.Join(err, l.fs.SyncDir(l.dir))
	}
	return err
}

// Close flushes and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}

// syncDir fsyncs a directory so entry creations/removals survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
