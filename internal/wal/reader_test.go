package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestIterateDirStreamsAllRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64}) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Append(KindProbe, []byte("probe")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []string
	var seqs []uint64
	err = IterateDir(dir, 0, func(r Record) error {
		got = append(got, string(r.Data))
		seqs = append(seqs, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("iterated %d records, want %d (probe must be invisible): %v", len(got), n, got)
	}
	for i, s := range got {
		if want := fmt.Sprintf("rec-%02d", i); s != want {
			t.Fatalf("record %d = %q, want %q", i, s, want)
		}
		if seqs[i] != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, seqs[i], i+1)
		}
	}

	// The after cursor skips the covered prefix.
	var tail []string
	if err := IterateDir(dir, 15, func(r Record) error {
		tail = append(tail, string(r.Data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != n-15 {
		t.Fatalf("after=15 iterated %d records, want %d", len(tail), n-15)
	}
}

func TestIterateDirToleratesTornTailWithoutTruncating(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage bytes past the last full frame.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	count := 0
	if err := IterateDir(dir, 0, func(Record) error { count++; return nil }); err != nil {
		t.Fatalf("torn tail must not fail iteration: %v", err)
	}
	if count != 3 {
		t.Fatalf("iterated %d records past a torn tail, want 3", count)
	}
	after, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("IterateDir truncated the segment: %d → %d bytes", before.Size(), after.Size())
	}
}

func TestIterateDirRejectsSealedSegmentDamage(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("need ≥ 2 segments for a sealed-damage test, got %v", segs)
	}
	// Flip a byte in the first (sealed) segment's payload.
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := IterateDir(dir, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("mid-log corruption in a sealed segment must fail iteration")
	}
}

func TestIterateDirPropagatesCallbackError(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	want := fmt.Errorf("stop here")
	count := 0
	err = IterateDir(dir, 0, func(Record) error {
		count++
		if count == 2 {
			return want
		}
		return nil
	})
	if err != want {
		t.Fatalf("err = %v, want the callback's own error", err)
	}
	if count != 2 {
		t.Fatalf("callback ran %d times, want 2 (stop on error)", count)
	}
}

// TestReplayRefusesALogThatStartsAfterTheCursor: a replay asked for
// everything after seq S over a log whose oldest segment starts past S+1
// would hand back a suffix with a hole before it. Both readers name the
// missing range instead.
func TestReplayRefusesALogThatStartsAfterTheCursor(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CompactThrough(10); err != nil {
		t.Fatal(err)
	}
	first := l.segs[0].first
	if first < 3 || first > 11 {
		t.Fatalf("oldest segment after compaction starts at %d", first)
	}
	none := func(Record) error { return nil }
	want := fmt.Sprintf("records 1 through %d are missing", first-1)
	if err := l.Replay(0, none); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Replay(0) = %v, want %q", err, want)
	}
	// From the record before the oldest kept on, nothing is missing.
	if err := l.Replay(first-1, none); err != nil {
		t.Fatalf("Replay(%d) = %v", first-1, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := IterateDir(dir, 0, none); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("IterateDir(0) = %v, want %q", err, want)
	}
	if err := IterateDir(dir, first-1, none); err != nil {
		t.Fatalf("IterateDir(%d) = %v", first-1, err)
	}
}
