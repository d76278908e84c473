package wal_test

// Disk-fault suite: the WAL under injected short writes, ENOSPC, failing
// fsyncs, and failing truncates (via the chaos filesystem fault layer). The
// invariant throughout: a failed append must leave the log replayable and
// byte-identical to the last acknowledged record — never a torn tail that
// swallows later acked records, never an unacknowledged record that replays.

import (
	"context"
	"errors"
	"fmt"
	"syscall"
	"testing"

	"crowdwifi/internal/chaos"
	"crowdwifi/internal/wal"
)

func openFaultLog(t *testing.T, dir string, fs *chaos.FaultFS) *wal.Log {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func mustAppend(t *testing.T, l *wal.Log, data string) uint64 {
	t.Helper()
	seq, err := l.Append(1, []byte(data))
	if err != nil {
		t.Fatalf("Append(%q): %v", data, err)
	}
	return seq
}

func replayAll(t *testing.T, l *wal.Log) []string {
	t.Helper()
	var out []string
	err := l.Replay(0, func(r wal.Record) error {
		out = append(out, fmt.Sprintf("%d:%s", r.Seq, r.Data))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func wantRecords(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestTornTailShortWriteHealsInPlace is the failing-before regression for the
// silent-corruption behaviour: a write failing mid-record used to leave half
// a frame on disk, so the NEXT append wrote a valid frame after garbage —
// recovery then truncated at the tear and lost that later, fully acknowledged
// record. With the in-place heal, the torn bytes are cut immediately and
// every acknowledged record survives both live replay and a reopen.
func TestTornTailShortWriteHealsInPlace(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFaultFS(nil)
	l := openFaultLog(t, dir, fs)

	mustAppend(t, l, "a")
	mustAppend(t, l, "b")

	// Tear the next frame five bytes in.
	fs.SetFault(chaos.FSFault{FailWrites: 1, TornBytes: 5})
	if _, err := l.Append(1, []byte("torn")); err == nil {
		t.Fatal("append through a torn write succeeded")
	}
	fs.SetFault(chaos.FSFault{})

	// The record after the tear must be acknowledged and must survive.
	seqC := mustAppend(t, l, "c")
	wantRecords(t, replayAll(t, l), "1:a", "2:b", fmt.Sprintf("%d:c", seqC))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen from disk: nothing to truncate (the heal already cut the torn
	// bytes) and the same records come back.
	l2, info, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if info.TruncatedBytes != 0 {
		t.Errorf("reopen truncated %d bytes; the live heal should have left a clean tail", info.TruncatedBytes)
	}
	wantRecords(t, replayAll(t, l2), "1:a", "2:b", fmt.Sprintf("%d:c", seqC))
}

// TestENOSPCMidRecord drives the disk-full case: the injected error must
// surface as ENOSPC (errors.Is) and the log must stay replayable and
// byte-identical to the last ack once space returns.
func TestENOSPCMidRecord(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFaultFS(nil)
	l := openFaultLog(t, dir, fs)
	defer l.Close()

	mustAppend(t, l, "a")
	fs.SetFault(chaos.FSFault{FailWrites: -1, TornBytes: 3, WriteErr: chaos.ErrNoSpace})

	_, err := l.Append(1, []byte("doomed"))
	if err == nil {
		t.Fatal("append on a full disk succeeded")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC in the chain", err)
	}
	// Still full: more appends keep failing without making the tail worse.
	if _, err := l.Append(1, []byte("doomed2")); err == nil {
		t.Fatal("second append on a full disk succeeded")
	}

	fs.SetFault(chaos.FSFault{})
	seq := mustAppend(t, l, "b")
	wantRecords(t, replayAll(t, l), "1:a", fmt.Sprintf("%d:b", seq))
}

// TestFsyncFailureDoesNotReplayUnackedRecord: an append whose fsync fails is
// not acknowledged, so its already-written frame must not replay — otherwise
// a client retry (new append, same payload) would double-apply.
func TestFsyncFailureDoesNotReplayUnackedRecord(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFaultFS(nil)
	l := openFaultLog(t, dir, fs)

	mustAppend(t, l, "a")
	fs.SetFault(chaos.FSFault{FailSyncs: 1})
	if _, err := l.Append(1, []byte("unacked")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	fs.SetFault(chaos.FSFault{})

	// The retry: same payload, new append — exactly once in the log.
	seq := mustAppend(t, l, "unacked")
	wantRecords(t, replayAll(t, l), "1:a", fmt.Sprintf("%d:unacked", seq))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	wantRecords(t, replayAll(t, l2), "1:a", fmt.Sprintf("%d:unacked", seq))
}

// TestAppendGroupFailsWhole: a group is numbered in order; when its fsync
// fails, none of it replays, a large record's direct write included, and it
// takes no sequence numbers.
func TestAppendGroupFailsWhole(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFaultFS(nil)
	l := openFaultLog(t, dir, fs)
	defer l.Close()

	big := string(make([]byte, 64<<10))
	group := func(data ...string) []wal.Record {
		recs := make([]wal.Record, len(data))
		for i, d := range data {
			recs[i] = wal.Record{Kind: 1, Data: []byte(d)}
		}
		return recs
	}
	if seq, err := l.AppendGroup(context.Background(), group("a", "b", "c")); err != nil || seq != 1 {
		t.Fatalf("AppendGroup = (%d, %v), want first seq 1", seq, err)
	}
	fs.SetFault(chaos.FSFault{FailSyncs: 1})
	if _, err := l.AppendGroup(context.Background(), group("x", big, "y")); !errors.Is(err, chaos.ErrInjectedSync) {
		t.Fatalf("group with a failing fsync: %v, want %v", err, chaos.ErrInjectedSync)
	}
	mustAppend(t, l, "d")
	wantRecords(t, replayAll(t, l), "1:a", "2:b", "3:c", "4:d")
}

// TestUnhealedTornTailFailsFastThenRecovers: when the heal itself fails (the
// disk refuses truncates too), later appends must fail fast — not write past
// garbage — and the first append after the disk heals must repair the tail
// and succeed.
func TestUnhealedTornTailFailsFastThenRecovers(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFaultFS(nil)
	l := openFaultLog(t, dir, fs)
	defer l.Close()

	mustAppend(t, l, "a")
	fs.SetFault(chaos.FSFault{FailWrites: 1, TornBytes: 4, FailTruncates: -1})
	if _, err := l.Append(1, []byte("torn")); err == nil {
		t.Fatal("append through a torn write succeeded")
	}

	// Disk still broken: the append must fail without writing.
	if _, err := l.Append(1, []byte("b")); err == nil {
		t.Fatal("append with an unhealed torn tail succeeded")
	}

	fs.SetFault(chaos.FSFault{})
	seq := mustAppend(t, l, "b")
	wantRecords(t, replayAll(t, l), "1:a", fmt.Sprintf("%d:b", seq))
}

// TestProbeReportsDiskHealth: Probe fails while the disk is broken, succeeds
// once healed, and its probe records are invisible to Replay.
func TestProbeReportsDiskHealth(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFaultFS(nil)
	l := openFaultLog(t, dir, fs)
	defer l.Close()

	mustAppend(t, l, "a")
	if err := l.Probe(context.Background()); err != nil {
		t.Fatalf("Probe on a healthy disk: %v", err)
	}

	fs.SetFault(chaos.FSFault{FailWrites: -1, WriteErr: chaos.ErrNoSpace})
	if err := l.Probe(context.Background()); err == nil {
		t.Fatal("Probe on a full disk succeeded")
	}

	fs.SetFault(chaos.FSFault{})
	if err := l.Probe(context.Background()); err != nil {
		t.Fatalf("Probe after heal: %v", err)
	}

	// Probes consumed sequence numbers but must not replay.
	recs := replayAll(t, l)
	wantRecords(t, recs, "1:a")
}

// TestCompactionSyncsASegmentItCannotRemove: compaction does not sync the
// covered active segment it seals, since it removes it next; but a segment
// whose removal fails stays on disk, so it is synced before CompactThrough
// returns, and the next compaction removes it.
func TestCompactionSyncsASegmentItCannotRemove(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("remove fails %v", fail), func(t *testing.T) {
			syncs := 0
			fs := chaos.NewFaultFS(syncCounter{n: &syncs})
			l, _, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for _, r := range []string{"a", "b", "c"} {
				mustAppend(t, l, r)
			}
			if fail {
				fs.SetFault(chaos.FSFault{FailRemoves: 1})
			}
			if err := l.CompactThrough(l.LastSeq()); err != nil {
				t.Fatal(err)
			}
			got := [2]int{l.Stats().Segments, syncs}
			if want := map[bool][2]int{false: {1, 0}, true: {2, 1}}[fail]; got != want {
				t.Fatalf("after compaction: %d segments and %d file syncs, want %v", got[0], got[1], want)
			}
			mustAppend(t, l, "d")
			if err := l.CompactThrough(3); err != nil {
				t.Fatal(err)
			}
			if got := l.Stats().Segments; got != 1 {
				t.Fatalf("a later compaction left %d segments, want 1", got)
			}
			var recs []string
			if err := l.Replay(3, func(r wal.Record) error { recs = append(recs, fmt.Sprintf("%d:%s", r.Seq, r.Data)); return nil }); err != nil {
				t.Fatal(err)
			}
			wantRecords(t, recs, "4:d")
		})
	}
}

// syncCounter is the real filesystem, counting the file syncs that reach it.
type syncCounter struct {
	wal.OSFS
	n *int
}

func (fs syncCounter) Create(path string) (wal.File, error) {
	f, err := fs.OSFS.Create(path)
	return countedSyncs{f, fs.n}, err
}

func (fs syncCounter) OpenAppend(path string) (wal.File, error) {
	f, err := fs.OSFS.OpenAppend(path)
	return countedSyncs{f, fs.n}, err
}

type countedSyncs struct {
	wal.File
	n *int
}

func (f countedSyncs) Sync() error {
	*f.n++
	return f.File.Sync()
}
