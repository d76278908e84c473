package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdwifi/internal/frame"
)

// collect replays everything after `after` into a slice.
func collect(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(after, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, OpenInfo) {
	t.Helper()
	l, info, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, info
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, info := mustOpen(t, dir, Options{})
	if info.NextSeq != 1 || info.TruncatedBytes != 0 {
		t.Fatalf("fresh open info = %+v", info)
	}
	for i := 0; i < 10; i++ {
		seq, err := l.Append(byte(i%3+1), []byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: numbering continues, replay returns everything in order.
	l2, info := mustOpen(t, dir, Options{})
	if info.NextSeq != 11 {
		t.Fatalf("reopened NextSeq = %d, want 11", info.NextSeq)
	}
	recs := collect(t, l2, 0)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Kind != byte(i%3+1) || string(r.Data) != fmt.Sprintf("record-%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Suffix replay.
	if got := collect(t, l2, 7); len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("suffix replay = %+v", got)
	}
}

// TestLargeGroupKeepsItsBufferSmall: a group of many records just under the
// direct-write size replays whole and in order, and the log's buffer, which
// it keeps for its life, never grew to hold the group.
func TestLargeGroupKeepsItsBufferSmall(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncOff})
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = Record{Kind: 1, Data: bytes.Repeat([]byte{byte(i)}, directBytes-1)}
	}
	if _, err := l.AppendGroup(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.buf); c > 4*directBytes {
		t.Errorf("a %d-record group left a %d-byte buffer, want at most %d", len(recs), c, 4*directBytes)
	}
	got := collect(t, l, 0)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Data, recs[i].Data) {
			t.Fatalf("record %d: seq %d, %d bytes", i, r.Seq, len(r.Data))
		}
	}
}

func TestFreshBootEmptyDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does-not-exist-yet")
	l, info := mustOpen(t, dir, Options{})
	if info.Segments != 1 || info.TruncatedBytes != 0 || info.NextSeq != 1 {
		t.Fatalf("info = %+v", info)
	}
	if got := collect(t, l, 0); len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	if l.LastSeq() != 0 {
		t.Fatalf("LastSeq = %d, want 0", l.LastSeq())
	}
}

func TestZeroLengthPayload(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, err := l.Append(7, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(8, []byte{}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, _ := mustOpen(t, dir, Options{})
	recs := collect(t, l2, 0)
	if len(recs) != 2 || recs[0].Kind != 7 || len(recs[0].Data) != 0 || recs[1].Kind != 8 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestMaxSizeRecord(t *testing.T) {
	dir := t.TempDir()
	// A segment large enough that the max record does not rotate forever.
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 2 * MaxRecordBytes})
	max := make([]byte, MaxRecordBytes-1) // +1 kind byte = exactly MaxRecordBytes
	for i := range max {
		max[i] = byte(i)
	}
	if _, err := l.Append(1, max); err != nil {
		t.Fatalf("max-size append: %v", err)
	}
	if _, err := l.Append(1, make([]byte, MaxRecordBytes)); err != ErrTooLarge {
		t.Fatalf("oversize append err = %v, want ErrTooLarge", err)
	}
	l.Close()

	l2, _ := mustOpen(t, dir, Options{SegmentBytes: 2 * MaxRecordBytes})
	recs := collect(t, l2, 0)
	if len(recs) != 1 || !bytes.Equal(recs[0].Data, max) {
		t.Fatalf("max-size record did not round-trip (%d records)", len(recs))
	}
}

// activeSegment returns the path of the newest segment file.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segmentPaths(t, dir)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return segs[len(segs)-1]
}

func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segmentPrefix+"*"+segmentSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, []byte(strings.Repeat("x", 100))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the final record: cut the segment mid-frame.
	seg := activeSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-30); err != nil {
		t.Fatal(err)
	}

	l2, info := mustOpen(t, dir, Options{})
	if info.TruncatedBytes == 0 {
		t.Fatal("open did not report tail truncation")
	}
	recs := collect(t, l2, 0)
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4 (torn record dropped)", len(recs))
	}
	// The log stays appendable and renumbers from the truncated position.
	seq, err := l2.Append(2, []byte("after-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Fatalf("post-recovery seq = %d, want 5", seq)
	}
	l2.Close()
	l3, _ := mustOpen(t, dir, Options{})
	if recs := collect(t, l3, 0); len(recs) != 5 || string(recs[4].Data) != "after-recovery" {
		t.Fatalf("post-recovery replay = %d records", len(recs))
	}
}

func TestCRCMismatchMidFinalSegmentTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 6; i++ {
		if _, err := l.Append(1, []byte(strings.Repeat("y", 64))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Flip one payload byte in the third record: everything from there on is
	// untrustworthy and gets truncated — but the boot must succeed.
	seg := activeSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	size := int(frame.Size(64))
	buf[2*size+frame.HeaderSize+10] ^= 0xff
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, info := mustOpen(t, dir, Options{})
	if want := int64(4 * size); info.TruncatedBytes != want {
		t.Fatalf("truncated %d bytes, want %d", info.TruncatedBytes, want)
	}
	if recs := collect(t, l2, 0); len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
}

func TestCRCMismatchInSealedSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several rotations.
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(1, []byte(strings.Repeat("z", 64))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs := segmentPaths(t, dir)
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	// Corrupt a payload byte in the middle of the FIRST (sealed) segment:
	// truncation cannot heal damage that has durable records after it, so
	// replay must fail loudly rather than silently drop mid-log records.
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[frame.HeaderSize+20] ^= 0xff
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("open itself should succeed (damage is mid-log): %v", err)
	}
	defer l2.Close()
	if info.TruncatedBytes != 0 {
		t.Fatalf("open truncated %d bytes from a sealed segment", info.TruncatedBytes)
	}
	err = l2.Replay(0, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("replay err = %v, want mid-log corruption error", err)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 200})
	for i := 0; i < 12; i++ {
		if _, err := l.Append(1, []byte(strings.Repeat("r", 60))); err != nil {
			t.Fatal(err)
		}
	}
	before := len(segmentPaths(t, dir))
	if before < 3 {
		t.Fatalf("expected rotations, have %d segments", before)
	}

	// Compact through seq 6: only segments fully ≤ 6 go.
	if err := l.CompactThrough(6); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, l, 6); len(recs) != 6 || recs[0].Seq != 7 {
		t.Fatalf("post-compaction suffix = %d records, first %d", len(recs), recs[0].Seq)
	}

	// Compact through everything: the active segment is sealed and removed,
	// a fresh empty one remains, and numbering is preserved.
	if err := l.CompactThrough(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if after := len(segmentPaths(t, dir)); after != 1 {
		t.Fatalf("segments after full compaction = %d, want 1", after)
	}
	seq, err := l.Append(1, []byte("post-compact"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 13 {
		t.Fatalf("post-compaction seq = %d, want 13", seq)
	}
	l.Close()

	// Records 1–12 are gone: a replay says where the caller's snapshot stands,
	// and one that asks for more than compaction kept is refused, not served
	// the suffix as if it were everything.
	l2, _ := mustOpen(t, dir, Options{SegmentBytes: 200})
	if recs := collect(t, l2, 12); len(recs) != 1 || recs[0].Seq != 13 {
		t.Fatalf("replay after compaction+reopen = %+v", recs)
	}
	err = l2.Replay(0, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "records 1 through 12 are missing") {
		t.Fatalf("replay from 0 over a log that starts at 13: err = %v, want the missing range named", err)
	}
}

func TestSnapshotRoundtripAndFallback(t *testing.T) {
	dir := t.TempDir()
	if seq, data, err := LatestSnapshot(dir); err != nil || data != nil || seq != 0 {
		t.Fatalf("empty dir snapshot = (%d, %v, %v)", seq, data, err)
	}
	if err := WriteSnapshot(dir, 10, strings.NewReader("state-at-10")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 25, strings.NewReader("state-at-25")); err != nil {
		t.Fatal(err)
	}
	seq, data, err := LatestSnapshot(dir)
	if err != nil || seq != 25 || string(data) != "state-at-25" {
		t.Fatalf("latest = (%d, %q, %v)", seq, data, err)
	}

	// Corrupt the newest snapshot: recovery falls back to the older one.
	path := filepath.Join(dir, snapshotName(25))
	buf, _ := os.ReadFile(path)
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, data, err = LatestSnapshot(dir)
	if err != nil || seq != 10 || string(data) != "state-at-10" {
		t.Fatalf("fallback = (%d, %q, %v)", seq, data, err)
	}

	// Compaction keeps the newest n.
	if err := WriteSnapshot(dir, 30, strings.NewReader("state-at-30")); err != nil {
		t.Fatal(err)
	}
	if oldest, err := CompactSnapshots(dir, 2); err != nil || oldest != 25 {
		t.Fatalf("CompactSnapshots = (%d, %v), want the older kept snapshot's 25", oldest, err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, snapshotPrefix+"*"+snapshotSuffix))
	if len(matches) != 2 {
		t.Fatalf("snapshots after compaction = %d, want 2", len(matches))
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(10))); !os.IsNotExist(err) {
		t.Fatal("oldest snapshot not removed")
	}
}

func TestNextSeqContinuesAfterSnapshotOnlyBoot(t *testing.T) {
	// A directory holding just a snapshot (all segments compacted): the log
	// must number its first record snapshotSeq+1 so replay offsets align.
	dir := t.TempDir()
	l, info := mustOpen(t, dir, Options{NextSeq: 43})
	if info.NextSeq != 43 {
		t.Fatalf("NextSeq = %d, want 43", info.NextSeq)
	}
	seq, err := l.Append(1, []byte("x"))
	if err != nil || seq != 43 {
		t.Fatalf("append = (%d, %v), want seq 43", seq, err)
	}
	if recs := collect(t, l, 42); len(recs) != 1 || recs[0].Seq != 43 {
		t.Fatalf("replay = %+v", recs)
	}
}

func TestIntervalAndOffPoliciesStillRecover(t *testing.T) {
	t.Run("off", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{Sync: SyncOff})
		for i := 0; i < 8; i++ {
			if _, err := l.Append(1, []byte("p")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil { // Close syncs regardless of policy
			t.Fatal(err)
		}
		l2, _ := mustOpen(t, dir, Options{Sync: SyncOff})
		if recs := collect(t, l2, 0); len(recs) != 8 {
			t.Fatalf("SyncOff recovered %d records, want 8", len(recs))
		}
	})
}

// TestCoveredSegmentIsNeverRead: compaction does not sync a segment it is
// about to remove, so when a crash loses the removal the segment comes back
// as whatever its unsynced pages held — here garbage. Open, Replay and
// IterateDir from the compacted sequence on never read it, and appends go on
// numbering after it; read from before the compaction, it is corruption as
// ever.
func TestCoveredSegmentIsNeverRead(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, []byte("covered")); err != nil {
			t.Fatal(err)
		}
	}
	covered := segmentPaths(t, dir)[0]
	if err := l.CompactThrough(5); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(covered, bytes.Repeat([]byte{0xa5}, 100), 0o644); err != nil {
		t.Fatal(err)
	}

	l, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info.NextSeq != 6 || info.TruncatedBytes != 0 {
		t.Fatalf("reopened at %+v, want the next sequence 6 and nothing cut", info)
	}
	if recs := collect(t, l, 5); len(recs) != 0 {
		t.Fatalf("replay after 5 = %d records", len(recs))
	}
	if err := IterateDir(dir, 5, func(r Record) error { return fmt.Errorf("record %d", r.Seq) }); err != nil {
		t.Fatalf("IterateDir after 5: %v", err)
	}
	if seq, err := l.Append(1, []byte("next")); err != nil || seq != 6 {
		t.Fatalf("next append = (%d, %v), want 6", seq, err)
	}
	if err := IterateDir(dir, 0, func(Record) error { return nil }); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("IterateDir from 0 over the garbage: %v, want corruption", err)
	}
}

// failingPayload writes part of a payload and then fails, as an encoder does
// that meets an entry it cannot frame.
type failingPayload struct{}

func (failingPayload) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write([]byte("part of a payload"))
	if err == nil {
		err = errors.New("encoding failed")
	}
	return int64(n), err
}

// TestSnapshotWriteFailureLeavesNothing: a payload that fails while it
// streams leaves neither a snapshot nor its temporary file behind.
func TestSnapshotWriteFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 7, failingPayload{}); err == nil || !strings.Contains(err.Error(), "encoding failed") {
		t.Fatalf("WriteSnapshot = %v, want the payload's error", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("left %v (%v), want an empty directory", entries, err)
	}
}
