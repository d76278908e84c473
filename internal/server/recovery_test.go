package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"crowdwifi/internal/chaos"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/wal"
)

// recoveryOp is one deterministic keyed mutation in the crash workload.
type recoveryOp struct {
	path string
	key  string
	body any
}

// recoveryOps builds the workload every crash test drives: patterns
// interleaved with reports, then labels (each referencing an
// already-created pattern, so any WAL prefix is self-consistent), then more
// reports. Vehicle v3 disagrees with the majority on half the tasks so the
// reliability inference produces a non-trivial spread.
func recoveryOps() []recoveryOp {
	var ops []recoveryOp
	add := func(path string, body any) {
		ops = append(ops, recoveryOp{path: path, key: fmt.Sprintf("op-%03d", len(ops)), body: body})
	}
	segs := []string{"seg-a", "seg-b"}
	for i := 0; i < 6; i++ {
		seg := segs[i%2]
		add("/v1/patterns", Pattern{Segment: seg, APs: []APReport{{X: float64(10 * i), Y: 5, Credit: 2}}})
		if i%2 == 1 {
			add("/v1/reports", Report{Vehicle: fmt.Sprintf("v%d", i%3+1), Segment: seg,
				APs: []APReport{{X: float64(10*i) + 0.5, Y: 5.2, Credit: 1}}})
		}
	}
	for v := 1; v <= 3; v++ {
		for task := 0; task < 6; task++ {
			val := 1
			if v == 3 && task%2 == 0 {
				val = -1
			}
			add("/v1/labels", []Label{{Vehicle: fmt.Sprintf("v%d", v), TaskID: task, Value: val}})
		}
	}
	for i := 0; i < 6; i++ {
		add("/v1/reports", Report{Vehicle: fmt.Sprintf("v%d", i%3+1), Segment: "seg-a",
			APs: []APReport{{X: float64(20 + i), Y: 7, Credit: 1}}})
	}
	return ops
}

// reply captures what the HTTP layer answered for one keyed op.
type reply struct {
	status   int
	body     string
	replayed bool
}

// drive posts ops[from:to] against url and records every response.
func drive(t *testing.T, url string, ops []recoveryOp, from, to int, got map[string]reply) {
	t.Helper()
	for _, op := range ops[from:to] {
		resp := postKeyed(t, url+op.path, op.key, op.body)
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode >= 300 {
			t.Fatalf("op %s: status %d body %s", op.key, resp.StatusCode, body)
		}
		got[op.key] = reply{
			status:   resp.StatusCode,
			body:     string(body),
			replayed: resp.Header.Get("Idempotent-Replay") == "true",
		}
	}
}

// fingerprint reduces the externally observable store state — counts, fused
// lookup output, and vehicle reliability — to one comparable string.
func fingerprint(t *testing.T, store *Store) string {
	t.Helper()
	p, l, r := store.Counts()
	look := store.Lookup(geo.NewRect(geo.Point{X: -1000, Y: -1000}, geo.Point{X: 1000, Y: 1000}))
	b, err := json.Marshal(struct {
		P, L, R int
		Lookup  []LookupResult
		Rel     map[string]float64
	}{p, l, r, look, store.Reliability()})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func openDurable(t *testing.T, dir string) (*Store, RecoveryStats) {
	t.Helper()
	store, stats, err := OpenStore(10, StorageOptions{Dir: dir})
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	return store, stats
}

// referenceRun drives the full workload uninterrupted against an in-memory
// store and returns the canonical responses and final fingerprint.
func referenceRun(t *testing.T) (map[string]reply, string) {
	t.Helper()
	store := NewStore(10)
	ts := httptest.NewServer(New(store))
	defer ts.Close()
	ops := recoveryOps()
	got := make(map[string]reply)
	drive(t, ts.URL, ops, 0, len(ops), got)
	if _, err := store.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	return got, fingerprint(t, store)
}

// TestCrashRecoveryKillMidIngest is the headline: a durable server is
// abandoned mid-ingest without any shutdown (the in-process equivalent of
// SIGKILL under fsync=always), restarted on the same directory, and the
// client re-sends the whole workload with the same idempotency keys. The
// recovered server must dedupe every pre-crash op with a byte-identical
// response and end in exactly the state of an uninterrupted run.
func TestCrashRecoveryKillMidIngest(t *testing.T) {
	refReplies, refFP := referenceRun(t)
	ops := recoveryOps()
	crashAt := 2 * len(ops) / 3
	dir := t.TempDir()

	store1, _ := openDurable(t, dir)
	ts1 := httptest.NewServer(New(store1))
	first := make(map[string]reply)
	drive(t, ts1.URL, ops, 0, crashAt, first)
	if _, err := store1.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	preP, preL, preR := store1.Counts()
	ts1.Close()
	// Crash: no store1.Close(), no snapshot — recovery sees only the WAL.

	store2, stats := openDurable(t, dir)
	defer store2.Close()
	if stats.SnapshotLoaded {
		t.Fatal("no snapshot was written, yet one loaded")
	}
	if stats.ReplayedRecords == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if stats.Patterns != preP || stats.Labels != preL || stats.Reports != preR {
		t.Fatalf("recovered counts (%d,%d,%d) != pre-crash (%d,%d,%d)",
			stats.Patterns, stats.Labels, stats.Reports, preP, preL, preR)
	}
	// The aggregate record replayed too: fused output is queryable before
	// any post-restart aggregation runs.
	if got := store2.Lookup(geo.NewRect(geo.Point{X: -1000, Y: -1000}, geo.Point{X: 1000, Y: 1000})); len(got) == 0 {
		t.Fatal("fused map empty after recovery despite pre-crash aggregate")
	}

	ts2 := httptest.NewServer(New(store2))
	defer ts2.Close()
	second := make(map[string]reply)
	drive(t, ts2.URL, ops, 0, len(ops), second)
	for i, op := range ops {
		r := second[op.key]
		if i < crashAt {
			if !r.replayed {
				t.Fatalf("op %s executed twice after recovery", op.key)
			}
			if f := first[op.key]; r.status != f.status || r.body != f.body {
				t.Fatalf("op %s replay diverged: (%d, %q) vs (%d, %q)",
					op.key, r.status, r.body, f.status, f.body)
			}
		} else if r.replayed {
			t.Fatalf("op %s never ran before the crash but claims replay", op.key)
		}
		if f := refReplies[op.key]; r.status != f.status || r.body != f.body {
			t.Fatalf("op %s response differs from uninterrupted run: (%d, %q) vs (%d, %q)",
				op.key, r.status, r.body, f.status, f.body)
		}
	}
	if _, err := store2.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	if fp := fingerprint(t, store2); fp != refFP {
		t.Fatalf("recovered state diverged\n got %s\nwant %s", fp, refFP)
	}
}

// TestCrashRecoveryTornWrite truncates the live segment at arbitrary byte
// offsets — mid-frame, mid-header, one byte short — and proves that after
// the client re-sends the full workload the state always converges to the
// uninterrupted run: durable ops dedupe, torn-away ops re-execute with the
// same IDs.
func TestCrashRecoveryTornWrite(t *testing.T) {
	_, refFP := referenceRun(t)
	ops := recoveryOps()

	// Populate once to learn the live segment size, then test each cut on a
	// fresh directory (truncation is destructive).
	probeDir := t.TempDir()
	probeStore, _ := openDurable(t, probeDir)
	probeTS := httptest.NewServer(New(probeStore))
	drive(t, probeTS.URL, ops, 0, len(ops), make(map[string]reply))
	probeTS.Close()
	size := liveSegmentSize(t, probeDir)

	for _, cut := range []int64{size - 1, size - 7, size * 3 / 4, size / 2, size / 7, 17} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			store1, _ := openDurable(t, dir)
			ts1 := httptest.NewServer(New(store1))
			drive(t, ts1.URL, ops, 0, len(ops), make(map[string]reply))
			ts1.Close()
			// Crash, then the torn write: the tail of the live segment is
			// lost at an arbitrary, frame-oblivious offset.
			seg := liveSegmentPath(t, dir)
			if err := os.Truncate(seg, cut); err != nil {
				t.Fatal(err)
			}

			store2, stats := openDurable(t, dir)
			defer store2.Close()
			if stats.ReplayedRecords >= len(ops) && cut < size-1 {
				t.Fatalf("cut at %d lost nothing (replayed %d)", cut, stats.ReplayedRecords)
			}
			ts2 := httptest.NewServer(New(store2))
			defer ts2.Close()
			second := make(map[string]reply)
			drive(t, ts2.URL, ops, 0, len(ops), second)
			replayed := 0
			for _, r := range second {
				if r.replayed {
					replayed++
				}
			}
			if int(stats.ReplayedRecords) > 0 && replayed == 0 {
				t.Fatal("records survived the cut but no op deduped")
			}
			if _, err := store2.AggregateCycle(); err != nil {
				t.Fatal(err)
			}
			if fp := fingerprint(t, store2); fp != refFP {
				t.Fatalf("state after torn write at %d diverged\n got %s\nwant %s", cut, fp, refFP)
			}
		})
	}
}

func liveSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	return matches[len(matches)-1]
}

func liveSegmentSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(liveSegmentPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCrashRecoveryFromSnapshotPlusSuffix writes a snapshot mid-workload,
// keeps ingesting, crashes, and verifies recovery loads the snapshot,
// replays only the WAL suffix, and still converges — including the
// idempotency cache carried inside the snapshot.
func TestCrashRecoveryFromSnapshotPlusSuffix(t *testing.T) {
	refReplies, refFP := referenceRun(t)
	ops := recoveryOps()
	snapAt := len(ops) / 2
	dir := t.TempDir()

	store1, _ := openDurable(t, dir)
	ts1 := httptest.NewServer(New(store1))
	first := make(map[string]reply)
	drive(t, ts1.URL, ops, 0, snapAt, first)
	if _, err := store1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	drive(t, ts1.URL, ops, snapAt, len(ops), first)
	ts1.Close()
	// Crash without Close.

	store2, stats := openDurable(t, dir)
	defer store2.Close()
	if !stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded")
	}
	if stats.ReplayedRecords != len(ops)-snapAt {
		t.Fatalf("replayed %d records, want only the %d post-snapshot ops",
			stats.ReplayedRecords, len(ops)-snapAt)
	}
	ts2 := httptest.NewServer(New(store2))
	defer ts2.Close()
	second := make(map[string]reply)
	drive(t, ts2.URL, ops, 0, len(ops), second)
	for _, op := range ops {
		r := second[op.key]
		if !r.replayed {
			t.Fatalf("op %s not deduped after snapshot recovery", op.key)
		}
		if f := refReplies[op.key]; r.status != f.status || r.body != f.body {
			t.Fatalf("op %s replay body diverged: %q vs %q", op.key, r.body, f.body)
		}
	}
	if _, err := store2.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	if fp := fingerprint(t, store2); fp != refFP {
		t.Fatalf("snapshot recovery diverged\n got %s\nwant %s", fp, refFP)
	}
}

// TestSnapshotCompactsWAL: after a snapshot covers every record, old
// segments are pruned and a restart recovers from the snapshot alone.
func TestSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	store1, _ := openDurable(t, dir)
	ts1 := httptest.NewServer(New(store1))
	ops := recoveryOps()
	drive(t, ts1.URL, ops, 0, len(ops), make(map[string]reply))
	ts1.Close()
	if _, err := store1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || liveSegmentSize(t, dir) != 0 {
		t.Fatalf("WAL not compacted after full snapshot: %d segments, live size %d",
			len(segs), liveSegmentSize(t, dir))
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, stats := openDurable(t, dir)
	defer store2.Close()
	if !stats.SnapshotLoaded || stats.ReplayedRecords != 0 {
		t.Fatalf("expected snapshot-only recovery, got %+v", stats)
	}
	p, l, r := store2.Counts()
	wp, wl, wr := store1.Counts()
	if p != wp || l != wl || r != wr {
		t.Fatalf("counts (%d,%d,%d) != (%d,%d,%d)", p, l, r, wp, wl, wr)
	}
}

// TestSnapshotWithNothingNewWritesNothing: a store booted from a snapshot
// with no record after it snapshots without writing a file, and one append
// later writes a new one.
func TestSnapshotWithNothingNewWritesNothing(t *testing.T) {
	dir := t.TempDir()
	store1, _ := openDurable(t, dir)
	if err := store1.AddReport(Report{Vehicle: "v1", Segment: "seg-a", APs: []APReport{{X: 1, Y: 2, Credit: 1}}}); err != nil {
		t.Fatal(err)
	}
	seq, err := store1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, stats := openDurable(t, dir)
	defer store2.Close()
	if !stats.SnapshotLoaded || stats.ReplayedRecords != 0 {
		t.Fatalf("expected snapshot-only recovery, got %+v", stats)
	}
	snaps := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "snap-*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := snaps()
	if len(before) != 1 {
		t.Fatalf("snapshot files = %v, want one", before)
	}
	info, err := os.Stat(before[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, err := store2.Snapshot(); err != nil || got != seq {
		t.Fatalf("Snapshot = (%d, %v), want (%d, nil)", got, err, seq)
	}
	after := snaps()
	again, err := os.Stat(before[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || !os.SameFile(info, again) {
		t.Fatalf("a snapshot with nothing new wrote a file: %v", after)
	}

	if err := store2.AddReport(Report{Vehicle: "v2", Segment: "seg-a", APs: []APReport{{X: 3, Y: 4, Credit: 1}}}); err != nil {
		t.Fatal(err)
	}
	next, err := store2.Snapshot()
	if err != nil || next <= seq {
		t.Fatalf("Snapshot after an append = (%d, %v), want a sequence past %d", next, err, seq)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", next))); err != nil {
		t.Fatalf("no snapshot written after an append: %v", err)
	}
}

// TestFreshBootEmptyDataDirMatchesInMemory: pointing -data-dir at an empty
// directory must behave exactly like the in-memory server.
func TestFreshBootEmptyDataDirMatchesInMemory(t *testing.T) {
	durable, stats := openDurable(t, filepath.Join(t.TempDir(), "fresh"))
	defer durable.Close()
	if stats.SnapshotLoaded || stats.ReplayedRecords != 0 || stats.TruncatedBytes != 0 || stats.LastSeq != 0 {
		t.Fatalf("fresh boot stats = %+v", stats)
	}
	mem := NewStore(10)
	ops := recoveryOps()
	for _, store := range []*Store{durable, mem} {
		ts := httptest.NewServer(New(store))
		drive(t, ts.URL, ops, 0, len(ops), make(map[string]reply))
		ts.Close()
		if _, err := store.AggregateCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if d, m := fingerprint(t, durable), fingerprint(t, mem); d != m {
		t.Fatalf("durable fresh boot diverged from in-memory\n got %s\nwant %s", d, m)
	}
}

// TestOpenStoreInMemoryWhenDirEmptyString: StorageOptions zero value is the
// plain in-memory store — no files, no goroutines, Close is a no-op.
func TestOpenStoreInMemoryWhenDirEmptyString(t *testing.T) {
	store, stats, err := OpenStore(10, StorageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats != (RecoveryStats{}) {
		t.Fatalf("stats = %+v", stats)
	}
	if addPattern(t, store, "s", nil) != 0 {
		t.Fatal("in-memory store broken")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// diskState is what recovery would make of dir, read without opening it for
// writing, so it can be compared with a store that still has it open.
func diskState(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := replayDir(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCrashRecoveryFailedCyclePublishesNothing: a cycle whose record the log
// refuses must leave Lookup, Reliability and the cluster digest where they
// were — which is where a recovery of the directory puts them — and the next
// healthy cycle publishes as if the failed one had not run.
func TestCrashRecoveryFailedCyclePublishesNothing(t *testing.T) {
	dir := t.TempDir()
	ffs := chaos.NewFaultFS(nil)
	store, _, err := OpenStore(10, StorageOptions{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ts := httptest.NewServer(New(store))
	defer ts.Close()
	ops := recoveryOps()
	half := len(ops) - 6 // the last six ops are reports the first cycle must not see
	drive(t, ts.URL, ops, 0, half, map[string]reply{})
	if _, err := store.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	drive(t, ts.URL, ops, half, len(ops), map[string]reply{})

	digests := func(s *Store) string {
		b, err := json.Marshal(s.SegmentDigests())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	before, beforeDigests := fingerprint(t, store), digests(store)

	ffs.SetFault(chaos.FSFault{FailWrites: 1})
	if _, err := store.AggregateCycle(); !errors.Is(err, ErrDurability) {
		t.Fatalf("cycle over a failing disk: err = %v, want ErrDurability", err)
	}
	if got := fingerprint(t, store); got != before {
		t.Fatalf("failed cycle changed live answers\n got %s\nwant %s", got, before)
	}
	if got := digests(store); got != beforeDigests {
		t.Fatalf("failed cycle changed the digest\n got %s\nwant %s", got, beforeDigests)
	}
	if got := fingerprint(t, diskState(t, dir)); got != before {
		t.Fatalf("live answers after a failed cycle differ from what the disk recovers to\n disk %s\n live %s", got, before)
	}

	if _, err := store.AggregateCycle(); err != nil {
		t.Fatalf("cycle after the disk healed: %v", err)
	}
	after := fingerprint(t, store)
	if after == before {
		t.Fatal("healthy cycle published nothing: the six late reports are not fused")
	}
	if got := fingerprint(t, diskState(t, dir)); got != after {
		t.Fatalf("disk does not hold the healthy cycle's output\n disk %s\n live %s", got, after)
	}
}

// twoSnapshotsAndASuffix leaves dir the way a long-running server does: 100
// reports, a snapshot, 100 more, a second snapshot, 10 more, no shutdown. It
// returns the newest snapshot's path.
func twoSnapshotsAndASuffix(t *testing.T, dir string) string {
	t.Helper()
	// Small segments, so the suffix after the older snapshot spans several.
	store, _, err := OpenStore(10, StorageOptions{Dir: dir, Fsync: wal.SyncOff, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	var newest uint64
	for i := 0; i < 210; i++ {
		if err := store.AddReportKeyed(context.Background(), fmt.Sprintf("fb-%d", i), batchReport(i)); err != nil {
			t.Fatal(err)
		}
		if i == 99 || i == 199 {
			if newest, err = store.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", newest))
}

func flipLastByte(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedNewestSnapshotFallsBackWithoutLoss: the spare snapshot is a
// fallback only if the log still holds the records after it. Compaction used
// to go through the newest snapshot, so a boot that fell back replayed the
// few records after the *newest* one onto the *older* state and came up,
// without a word, 100 acknowledged reports short.
func TestDamagedNewestSnapshotFallsBackWithoutLoss(t *testing.T) {
	dir := t.TempDir()
	flipLastByte(t, twoSnapshotsAndASuffix(t, dir))

	store, stats := openDurable(t, dir)
	defer store.Close()
	if !stats.SnapshotLoaded || stats.SnapshotSeq != 100 {
		t.Fatalf("recovery did not fall back to the older snapshot: %+v", stats)
	}
	if stats.Reports != 210 || stats.ReplayedRecords != 110 {
		t.Fatalf("fallback recovered %d reports from %d replayed records, want all 210 from 110", stats.Reports, stats.ReplayedRecords)
	}
	for i := 0; i < 210; i++ {
		if seen, rec := store.idem.begin(fmt.Sprintf("fb-%d", i)); !seen || rec == nil {
			t.Fatalf("acknowledged upload fb-%d is not in the recovered store", i)
		}
	}
}

// TestFallbackWithoutItsLogSuffixRefusesToBoot: when the records between the
// fallback snapshot and the surviving log are gone, recovery must say so
// rather than serve the state with a hole in it.
func TestFallbackWithoutItsLogSuffixRefusesToBoot(t *testing.T) {
	dir := t.TempDir()
	flipLastByte(t, twoSnapshotsAndASuffix(t, dir))
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 3 || filepath.Base(segs[0]) != fmt.Sprintf("wal-%020d.seg", 101) {
		t.Fatalf("segments %v (err %v), want several starting at record 101", segs, err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}

	missing := regexp.MustCompile(`records 101 through 1\d\d are missing`)
	_, _, err = OpenStore(10, StorageOptions{Dir: dir})
	if err == nil || !missing.MatchString(err.Error()) {
		t.Fatalf("OpenStore over a log with a hole: err = %v, want the missing range named", err)
	}
	if _, err := replayDir(dir, 10); err == nil || !missing.MatchString(err.Error()) {
		t.Fatalf("read-only replay over a log with a hole: err = %v, want the missing range named", err)
	}
}

// TestLostSegmentRemovalAfterSnapshot is the crash window of a compaction
// that does not sync the segment it removes: the removal never reaches the
// disk and the segment's unsynced pages are lost, so after the crash a file
// of garbage, or a torn prefix of what was written, sits under the covered
// segment's name. Recovery must not read it: it boots to the same last
// sequence, counts and lookups, and numbers the next append after them.
func TestLostSegmentRemovalAfterSnapshot(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"garbage": func(b []byte) []byte { return bytes.Repeat([]byte{0xa5}, len(b)) },
		"torn":    func(b []byte) []byte { return b[:len(b)/2+3] },
	} {
		t.Run(name, func(t *testing.T) {
			s, dir := filled(t, offlineShape{segments: 50, reports: 2000, vehicles: 40, patterns: 30, labelsPerVehicle: 3}, StorageOptions{})
			seg := liveSegmentPath(t, dir)
			written, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(seg); !os.IsNotExist(err) {
				t.Fatalf("the covered segment %s is still there (%v)", seg, err)
			}
			want, wantSeq := fingerprint(t, s)+lookupBytes(t, s, everything), s.WALStats().LastSeq
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, damage(written), 0o644); err != nil {
				t.Fatal(err)
			}

			reopened, stats := openDurable(t, dir)
			defer reopened.Close()
			if stats.LastSeq != wantSeq {
				t.Errorf("recovered to sequence %d, want %d", stats.LastSeq, wantSeq)
			}
			if got := fingerprint(t, reopened) + lookupBytes(t, reopened, everything); got != want {
				t.Errorf("recovered state differs\n got %s\nwant %s", got, want)
			}
			if err := reopened.AddReportKeyed(context.Background(), "", countsReport(0)); err != nil {
				t.Fatal(err)
			}
			if got := reopened.WALStats().LastSeq; got != wantSeq+1 {
				t.Errorf("the next append got sequence %d, want %d", got, wantSeq+1)
			}
		})
	}
}
