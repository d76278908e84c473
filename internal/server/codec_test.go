package server

// The persisted-state codec's contract: a data directory an older build wrote
// still opens and answers as that build did; whatever sequence of mutations
// ran, what is on disk recovers to the live store's state byte for byte,
// whichever mix of formats holds it; and the decoders survive hostile bytes.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"crowdwifi/internal/frame"
	"crowdwifi/internal/wal"
)

// copyDir copies the files of src into a fresh temporary directory.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// exportAll fingerprints the move that exports everything s holds: every
// pattern, report and label with its position, absent against empty AP lists.
func exportAll(t testing.TB, s *Store) string {
	t.Helper()
	m := s.exportMove("fixture", func(string) string { return "all" }, defaultBatchChunkBytes)
	return fmt.Sprintf("export %x", sha256.Sum256(m["all"]))
}

// reportsOf decodes the reports l holds.
func reportsOf(l reportLog) []Report {
	out := make([]Report, l.len())
	for i := range out {
		e := parseEntry(l.entry(i))
		r := Report{Vehicle: string(e.vehicle), Segment: string(e.segment)}
		if e.data[0] == flagEmptyList {
			r.APs = []APReport{}
		}
		for k := range e.numAPs() {
			x, y, credit := e.ap(k)
			r.APs = append(r.APs, APReport{X: x, Y: y, Credit: credit})
		}
		out[i] = r
	}
	return out
}

// logOf is the report log that holds rs.
func logOf(rs []Report) reportLog {
	var l reportLog
	for _, r := range rs {
		e, _ := appendReportEntry(nil, "", r)
		l.add(e)
	}
	return l
}

// legacySnapshotJSON is st as an older build's JSON snapshot.
func legacySnapshotJSON(t testing.TB, st snapshotState) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		snapshotState
		Reports []Report `json:"reports"`
	}{st, reportsOf(st.Reports)})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encodeCycle encodes a view as the recCycle payload builds before the
// capture record logged: segments and vehicles sorted.
func encodeCycle(v *view) []byte {
	dst := appendBlock(nil, sortedKeys(v.fused), func(dst []byte, seg string) []byte {
		return appendFusedEntry(dst, seg, v.fused[seg])
	})
	return appendBlock(dst, sortedKeys(v.reliability), func(dst []byte, vehicle string) []byte {
		return appendReliabilityEntry(dst, vehicle, v.reliability[vehicle])
	})
}

// legacySlice is the JSON an older build exported a shard's state as, which
// expected.json records; its keys are left out.
type legacySlice struct {
	Patterns []legacySlicePattern `json:"patterns"`
	Reports  []legacySliceReport  `json:"reports"`
	Labels   []legacySliceLabel   `json:"labels"`
}

type legacySlicePattern struct {
	ID      int        `json:"id"`
	Segment string     `json:"segment"`
	APs     []APReport `json:"aps,omitempty"`
}

type legacySliceReport struct {
	Report Report `json:"report"`
}

type legacySliceLabel struct {
	Label   Label  `json:"label"`
	Segment string `json:"segment"`
}

// asLegacySlice is every pattern, report and label s holds, as legacySlice.
func asLegacySlice(t testing.TB, s *Store) string {
	t.Helper()
	c := s.capture()
	sl := legacySlice{Patterns: []legacySlicePattern{}, Reports: []legacySliceReport{}, Labels: []legacySliceLabel{}}
	for _, p := range c.patterns {
		sl.Patterns = append(sl.Patterns, legacySlicePattern{p.ID, p.Segment, p.APs})
	}
	for _, r := range reportsOf(c.reports) {
		sl.Reports = append(sl.Reports, legacySliceReport{r})
	}
	for _, l := range c.labels {
		sl.Labels = append(sl.Labels, legacySliceLabel{l, c.patterns[l.TaskID].Segment})
	}
	return mustJSON(t, sl)
}

// TestLegacyDataDirOpens opens testdata/datadir-v1 — written by the build at
// 0c0e8a9, the last to persist JSON (generate_test.go.txt beside it is the
// program): keyed single uploads with absent, empty and populated AP lists, two
// multi-chunk batches, patterns, labels, a cycle, a JSON snapshot carrying the
// "vehicles" member of still older builds, a log suffix holding every record
// kind, and a torn tail. Recovery must answer exactly as that build's own
// recovery did (expected.json), and the directory must keep working: this
// build appends to it, snapshots it, and reopens what it wrote.
func TestLegacyDataDirOpens(t *testing.T) {
	const fixture = "testdata/datadir-v1"
	var ops []struct {
		Path string          `json:"path"`
		Key  string          `json:"key"`
		Body json.RawMessage `json:"body"`
	}
	var want struct {
		Patterns, Labels, Reports  int
		Lookup, Reliability, Slice string
		Replies                    map[string]struct {
			Status int
			Body   string
		}
		SnapshotSeq     uint64
		ReplayedRecords int
		TruncatedBytes  int64
	}
	readJSON(t, filepath.Join(fixture, "ops.json"), &ops)
	readJSON(t, filepath.Join(fixture, "expected.json"), &want)

	check := func(name string, s *Store) {
		t.Helper()
		if p, l, r := s.Counts(); p != want.Patterns || l != want.Labels || r != want.Reports {
			t.Fatalf("%s: counts (%d,%d,%d), the older build recovered (%d,%d,%d)", name, p, l, r, want.Patterns, want.Labels, want.Reports)
		}
		if got := lookupBytes(t, s, everything); got != want.Lookup {
			t.Fatalf("%s: lookup\n got %s\nwant %s", name, got, want.Lookup)
		}
		if got := reliabilityBytes(t, s); got != want.Reliability {
			t.Fatalf("%s: reliability\n got %s\nwant %s", name, got, want.Reliability)
		}
		var slice legacySlice
		if err := json.Unmarshal([]byte(want.Slice), &slice); err != nil {
			t.Fatal(err)
		}
		if got, want := asLegacySlice(t, s), mustJSON(t, slice); got != want {
			t.Fatalf("%s: patterns, reports and labels\n got %s\nwant %s", name, got, want)
		}
	}
	// replays re-sends every keyed request the fixture was built from: each
	// must be answered from the recovered idempotency cache with the bytes the
	// older build answered, and store nothing.
	replays := func(name string, s *Store) {
		t.Helper()
		ts := httptest.NewServer(New(s))
		defer ts.Close()
		_, _, before := s.Counts()
		for _, op := range ops {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+op.Path, bytes.NewReader(op.Body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(IdempotencyKeyHeader, op.Key)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			w := want.Replies[op.Key]
			if resp.Header.Get("Idempotent-Replay") != "true" || resp.StatusCode != w.Status || string(body) != w.Body {
				t.Fatalf("%s: key %s answered (%d, %q, replay=%q), the older build replayed (%d, %q)",
					name, op.Key, resp.StatusCode, body, resp.Header.Get("Idempotent-Replay"), w.Status, w.Body)
			}
		}
		if _, _, after := s.Counts(); after != before {
			t.Fatalf("%s: replays stored %d reports", name, after-before)
		}
	}

	// Read-only, straight from the checked-in bytes.
	readOnly, err := replayDir(filepath.Join(fixture, "data"), 10)
	if err != nil {
		t.Fatal(err)
	}
	check("read-only replay", readOnly)
	replays("read-only replay", readOnly)

	// Opened for writing, on a copy: the torn tail is cut.
	dir := copyDir(t, filepath.Join(fixture, "data"))
	store, stats, err := OpenStore(10, StorageOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SnapshotLoaded || stats.SnapshotSeq != want.SnapshotSeq || stats.ReplayedRecords != want.ReplayedRecords || stats.TruncatedBytes != want.TruncatedBytes {
		t.Fatalf("recovery stats %+v, the older build's were snapshot %d, %d records, %d bytes cut",
			stats, want.SnapshotSeq, want.ReplayedRecords, want.TruncatedBytes)
	}
	check("opened", store)
	replays("opened", store)

	// This build appends to the same log, then its recovery reads a log that
	// changes format midway.
	store.batchChunk = 256
	if err := store.AddReportKeyed(context.Background(), "new-single", Report{Vehicle: "v1", Segment: "seg-n", APs: []APReport{}}); err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, 9)
	for i := range items {
		items[i] = BatchItem{Key: fmt.Sprintf("new-b-%d", i), Report: batchReport(i)}
	}
	if err := errors.Join(store.AddReportBatch(context.Background(), items)...); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	newKeys := func(name string, s *Store) {
		t.Helper()
		for _, key := range append([]string{"new-single"}, func() (ks []string) {
			for _, it := range items {
				ks = append(ks, it.Key)
			}
			return
		}()...) {
			if seen, rec := s.idem.begin(key); !seen || rec == nil || rec.status != http.StatusCreated {
				t.Fatalf("%s: key %s is not a completed upload", name, key)
			}
		}
	}
	live := fingerprint(t, store) + exportAll(t, store)
	mixed := diskState(t, dir)
	if got := fingerprint(t, mixed) + exportAll(t, mixed); got != live {
		t.Fatalf("a log that turns binary midway recovered differently\n got %s\nwant %s", got, live)
	}
	replays("mixed log", mixed)
	newKeys("mixed log", mixed)

	// And replaces the JSON snapshot with its own.
	if _, err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	_, data, err := wal.LatestSnapshot(dir)
	if err != nil || !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		t.Fatalf("the newest snapshot is not in the binary codec (err %v)", err)
	}
	reopened, stats := openDurable(t, dir)
	defer reopened.Close()
	if !stats.SnapshotLoaded || stats.ReplayedRecords != 0 {
		t.Fatalf("reopen after the snapshot: %+v", stats)
	}
	if got := fingerprint(t, reopened) + exportAll(t, reopened); got != live {
		t.Fatalf("this build's snapshot of the upgraded directory recovered differently\n got %s\nwant %s", got, live)
	}
	replays("after the new snapshot", reopened)
	newKeys("after the new snapshot", reopened)
}

// TestReplayRefusesALegacyLabelOfNoTask: a JSON label record goes through the
// check a binary one does, so a label that names no task, or answers neither
// +1 nor -1, is refused at replay instead of making the next cycle panic.
func TestReplayRefusesALegacyLabelOfNoTask(t *testing.T) {
	for _, c := range []struct {
		patterns int
		labels   string
	}{
		{0, `{"labels":[{"vehicle":"v","taskId":5,"value":1}]}`},
		{1, `{"labels":[{"vehicle":"v","taskId":-1,"value":1}]}`},
		{1, `{"labels":[{"vehicle":"v","taskId":0,"value":0}]}`},
	} {
		dir := t.TempDir()
		log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		legacy := &legacyLog{t: t, dir: dir, log: log}
		for id := 0; id < c.patterns; id++ {
			legacy.append(recPattern, patternRecord{ID: id, Segment: "s"})
		}
		if _, err := log.Append(recLabels, []byte(c.labels)); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		s, _, err := OpenStore(10, StorageOptions{Dir: dir})
		if err == nil {
			s.Close()
			t.Fatalf("%s among %d patterns replayed", c.labels, c.patterns)
		}
		if !strings.Contains(err.Error(), "label") {
			t.Fatalf("%s: refused with %v, which does not name the label", c.labels, err)
		}
	}
}

// legacyLog writes records the way the build before the binary codec did, so
// a test can hand recovery a directory that build left behind in any state.
type legacyLog struct {
	t   *testing.T
	dir string
	log *wal.Log
}

func (w *legacyLog) append(kind byte, v any) {
	w.t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		w.t.Fatal(err)
	}
	if _, err := w.log.Append(kind, data); err != nil {
		w.t.Fatal(err)
	}
}

// snapshot writes ref's state as the JSON snapshot covering the log so far.
func (w *legacyLog) snapshot(ref *Store) {
	w.t.Helper()
	c := ref.capture()
	data := legacySnapshotJSON(w.t, snapshotState{Patterns: c.patterns, Labels: c.labels, Reports: c.reports,
		Fused: c.view.fused, Reliability: c.view.reliability, Idem: ref.idem.snapshot()})
	if err := wal.WriteSnapshot(w.dir, w.log.LastSeq(), bytes.NewReader(data)); err != nil {
		w.t.Fatal(err)
	}
}

// TestRecoveryAgreesWithLiveStore is the codec's property: run a seeded random
// sequence of uploads, batches, patterns, labels, cycles, snapshots, drops,
// reopens and moves in and out against an in-memory store that is never
// recovered, and beside it against three directories — one that is only ever
// a log, one that is snapshotted and reopened as the sequence says, and one
// whose first half an older build wrote as JSON. Whatever each directory
// recovers to must equal the in-memory store in everything an export can see
// (every report, pattern and label, absent against empty AP lists, and their
// positions), in the derived state, in the idempotency cache and in the move
// tables.
func TestRecoveryAgreesWithLiveStore(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { recoveryProperty(t, seed) })
	}
}

func recoveryProperty(t *testing.T, seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	const steps = 80
	ctx := context.Background()

	const chunk = 200 // records, and blocks of a move, of a few entries each
	ref := NewStore(10)
	ref.batchChunk = chunk
	open := func(dir string) *Store {
		s, _ := openDurable(t, dir)
		s.batchChunk = chunk
		return s
	}
	logOnly, snapped := open(t.TempDir()), open(t.TempDir())
	snappedDir := snapped.storage.Dir
	legacyDir := t.TempDir()
	ll, _, err := wal.Open(legacyDir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	legacy := &legacyLog{t: t, dir: legacyDir, log: ll}
	var upgraded *Store // the legacy directory, once this build has opened it
	// Where the legacy directory's last JSON snapshot and its upgrade fell:
	// see wantLegacy.
	var legacyDrops map[string]int
	var legacyPatterns, upgradePatterns int
	peer := NewStore(10) // the other end of every move
	peer.batchChunk = chunk
	var moves [][]byte // every move in so far, to be sent again

	aps := func() []APReport {
		switch rnd.Intn(6) {
		case 0:
			return nil
		case 1:
			return []APReport{}
		}
		out := make([]APReport, 1+rnd.Intn(3))
		for i := range out {
			out[i] = APReport{X: float64(rnd.Intn(400)) / 4, Y: float64(rnd.Intn(40)) / 8, Credit: float64(1 + rnd.Intn(3))}
		}
		return out
	}
	report := func() Report {
		return Report{Vehicle: fmt.Sprintf("v%d", rnd.Intn(5)), Segment: fmt.Sprintf("seg-%d", rnd.Intn(6)), APs: aps()}
	}
	keyN := 0
	key := func() string {
		if rnd.Intn(4) == 0 {
			return ""
		}
		keyN++
		return fmt.Sprintf("k-%d", keyN)
	}
	// each applies one mutation to every store this build drives.
	each := func(fn func(s *Store) error) {
		t.Helper()
		stores := []*Store{ref, logOnly, snapped}
		if upgraded != nil {
			stores = append(stores, upgraded)
		}
		for _, s := range stores {
			if err := fn(s); err != nil {
				t.Fatal(err)
			}
		}
	}

	for step := 0; step < steps; step++ {
		if step == steps/2 {
			if err := legacy.log.Close(); err != nil {
				t.Fatal(err)
			}
			upgraded = open(legacyDir)
			upgradePatterns = len(ref.patterns)
		}
		old := upgraded == nil // the legacy directory is still the older build's
		switch op := rnd.Intn(19); {
		case op < 5:
			k, r := key(), report()
			each(func(s *Store) error { return s.AddReportKeyed(ctx, k, r) })
			if old {
				legacy.append(recLegacyReport, reportRecord{Report: r, IdemKey: k})
			}
		case op < 8:
			items := make([]BatchItem, 1+rnd.Intn(12))
			for i := range items {
				items[i] = BatchItem{Key: key(), Report: report()}
			}
			each(func(s *Store) error { return errors.Join(s.AddReportBatch(ctx, items)...) })
			if old {
				for len(items) > 0 { // the older build chunked too
					n := min(len(items), 1+rnd.Intn(5))
					var rec batchRecord
					for _, it := range items[:n] {
						rec.Reports = append(rec.Reports, json.RawMessage(mustJSON(t, reportRecord{Report: it.Report, IdemKey: it.Key})))
					}
					legacy.append(recLegacyBatch, rec)
					items = items[n:]
				}
			}
		case op < 10:
			k, seg, a := key(), fmt.Sprintf("seg-%d", rnd.Intn(6)), aps()
			id := len(ref.patterns)
			each(func(s *Store) error { _, err := s.AddPatternKeyed(ctx, k, seg, a); return err })
			if old {
				legacy.append(recPattern, patternRecord{ID: id, Segment: seg, APs: a, IdemKey: k})
			}
		case op < 12:
			if len(ref.patterns) == 0 {
				continue
			}
			k, ls := key(), make([]Label, 1+rnd.Intn(4))
			for i := range ls {
				ls[i] = Label{Vehicle: fmt.Sprintf("v%d", rnd.Intn(5)), TaskID: rnd.Intn(len(ref.patterns)), Value: 1 - 2*rnd.Intn(2)}
			}
			each(func(s *Store) error { return s.AddLabelsKeyed(ctx, k, ls) })
			if old {
				legacy.append(recLabels, labelsRecord{Labels: ls, IdemKey: k})
			}
		case op < 13:
			each(func(s *Store) error { _, err := s.AggregateCycle(); return err })
			if old {
				v := ref.view.Load()
				legacy.append(recLegacyCycle, aggregateRecord{Fused: v.fused, Reliability: v.reliability})
			}
		case op < 14:
			seg := []string{fmt.Sprintf("seg-%d", rnd.Intn(6))}
			each(func(s *Store) error { _, err := s.DropSegments(ctx, seg); return err })
			if old {
				legacy.append(recDrop, dropRecord{Segments: seg})
			}
		case op < 15:
			if _, err := snapped.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if old {
				legacy.snapshot(ref)
				legacyDrops, legacyPatterns = maps.Clone(ref.dropped), len(ref.patterns)
			} else if _, err := upgraded.Snapshot(); err != nil {
				t.Fatal(err)
			}
		case op < 16:
			if err := snapped.Close(); err != nil {
				t.Fatal(err)
			}
			snapped = open(snappedDir)
		case op < 17: // a move in: new evidence, or one sent before
			if old {
				continue // an older build logs no moves
			}
			if len(moves) == 0 || rnd.Intn(3) > 0 {
				seg := fmt.Sprintf("seg-%d", rnd.Intn(6))
				for i := rnd.Intn(3); i >= 0; i-- {
					r := report()
					r.Segment = seg
					if err := peer.AddReport(r); err != nil {
						t.Fatal(err)
					}
				}
				if rnd.Intn(2) == 0 {
					id := addPattern(t, peer, seg, aps())
					if err := peer.AddLabels([]Label{{Vehicle: fmt.Sprintf("v%d", rnd.Intn(5)), TaskID: id, Value: 1}}); err != nil {
						t.Fatal(err)
					}
				}
				moves = append(moves, moveOf(t, peer, "peer", seg))
			}
			move := moves[rnd.Intn(len(moves))]
			each(func(s *Store) error { _, err := s.applyMove(ctx, move); return err })
		case op < 18: // a cycle, a drop, a crash: recovery must trim the view
			// the capture record publishes as the live drop trimmed it
			seg := []string{fmt.Sprintf("seg-%d", rnd.Intn(6))}
			each(func(s *Store) error { _, err := s.AggregateCycle(); return err })
			if old {
				v := ref.view.Load()
				legacy.append(recLegacyCycle, aggregateRecord{Fused: v.fused, Reliability: v.reliability})
				legacy.append(recDrop, dropRecord{Segments: seg})
			}
			each(func(s *Store) error { _, err := s.DropSegments(ctx, seg); return err })
			if err := snapped.Close(); err != nil {
				t.Fatal(err)
			}
			snapped = open(snappedDir)
		default: // a move out: export, apply at the peer, drop
			seg := fmt.Sprintf("seg-%d", rnd.Intn(6))
			move := moveOf(t, ref, "self", seg)
			for _, s := range []*Store{logOnly, snapped} {
				if got := moveOf(t, s, "self", seg); !bytes.Equal(got, move) {
					t.Fatalf("the export of %s differs from the in-memory store's", seg)
				}
			}
			if _, err := peer.applyMove(ctx, move); err != nil {
				t.Fatal(err)
			}
			each(func(s *Store) error { _, err := s.DropSegments(ctx, []string{seg}); return err })
			if old {
				legacy.append(recDrop, dropRecord{Segments: []string{seg}})
			}
		}
	}

	state := func(s *Store) string {
		return fingerprint(t, s) + exportAll(t, s) + mustJSON(t, s.idem.snapshot()) + fmt.Sprintf("%v %v", s.received, s.dropped)
	}
	want := state(ref)
	// The legacy directory holds what the older build's formats could keep:
	// its JSON snapshot has no drop counts, so it counts drops from the last
	// one it wrote, and its pattern record leaves an empty AP list out, so the
	// patterns it logged after that snapshot have none.
	dropped, patterns := ref.dropped, ref.patterns
	ref.dropped, ref.patterns = map[string]int{}, slices.Clone(patterns)
	for seg, n := range dropped {
		if n > legacyDrops[seg] {
			ref.dropped[seg] = n - legacyDrops[seg]
		}
	}
	for i := legacyPatterns; i < upgradePatterns; i++ {
		if len(ref.patterns[i].APs) == 0 {
			ref.patterns[i].APs = nil
		}
	}
	wantLegacy := state(ref)
	ref.dropped, ref.patterns = dropped, patterns
	for name, s := range map[string]*Store{"log only": logOnly, "snapshot + suffix": snapped, "legacy then new": upgraded} {
		want := want
		if s == upgraded {
			want = wantLegacy
		}
		if got := state(s); got != want {
			t.Fatalf("%s: the store driving the directory diverged from the in-memory one\n got %s\nwant %s", name, got, want)
		}
		dir := s.storage.Dir
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := state(diskState(t, dir)); got != want {
			t.Fatalf("%s: recovered state differs from the live store's\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestSnapshotFramesAGiantEntryAlone: an entry larger than a snapshot frame's
// budget — here a report near the largest the log takes — gets a frame to
// itself instead of pushing one it shares past what the loader accepts.
func TestSnapshotFramesAGiantEntryAlone(t *testing.T) {
	dir := t.TempDir()
	store, _ := openDurable(t, dir)
	giant := Report{Vehicle: "v", Segment: "s", APs: make([]APReport, (defaultBatchChunkBytes-64)/24)}
	for i := 0; i < 100; i++ {
		if err := store.AddReport(batchReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.AddReport(giant); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, stats := openDurable(t, dir)
	defer reopened.Close()
	if !stats.SnapshotLoaded || stats.Reports != 101 || parseEntry(reopened.reports.entry(100)).numAPs() != len(giant.APs) {
		t.Fatalf("reopened with %+v", stats)
	}
}

// The decoders read bytes a disk returned. Both fuzz targets hold them to the
// wire codec's three properties (internal/api/fuzz_test.go): no panic, heap
// in proportion to the input and not to a count it claims, and what is
// accepted re-encodes to a fixed point.
const (
	fuzzAllocPerByte = 64
	fuzzAllocSlack   = 256 << 10
)

func decodeBounded(t *testing.T, n int, decode func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(fuzzAllocPerByte*n+fuzzAllocSlack) {
		t.Fatalf("decoding %d bytes allocated %d", n, grew)
	}
}

// encodeSnapshot is st's snapshot payload, written into memory.
func encodeSnapshot(st snapshotState) ([]byte, error) {
	var b bytes.Buffer
	_, err := st.WriteTo(&b)
	return b.Bytes(), err
}

// decodeSnapshot is decodeSnapshotPayload on a copy of data, which it leaves
// as it is.
func decodeSnapshot(data []byte, str func([]byte) string) (snapshotState, error) {
	return decodeSnapshotPayload(bytes.Clone(data), str)
}

// fuzzState is a small store state with one of everything, including the
// absent/empty AP list pair.
func fuzzState() snapshotState {
	return snapshotState{
		Patterns: []Pattern{{ID: 0, Segment: "s1", APs: []APReport{{X: 1, Y: 2, Credit: 3}}}, {ID: 1, Segment: "s2"}, {ID: 2, Segment: "s1", APs: []APReport{}}},
		Labels:   []Label{{Vehicle: "v1", TaskID: 0, Value: 1}, {Vehicle: "v2", TaskID: 2, Value: -1}},
		Reports: logOf([]Report{{Vehicle: "v1", Segment: "s1", APs: []APReport{{X: 1.5, Y: 2.5, Credit: 1}}},
			{Vehicle: "v2", Segment: "s2"}, {Vehicle: "v2", Segment: "s2", APs: []APReport{}}}),
		Fused:       map[string][]LookupResult{"s1": {{X: 1.25, Y: 2.25, Weight: 1}}, "s2": {}, "s3": {{X: 3, Y: 4, Weight: 1}, {X: 5, Y: 6, Weight: 0.5}}},
		Reliability: map[string]float64{"v1": 1, "v2": 0.05},
		Idem:        []idemEntry{{Key: "k1", Status: 201, Body: []byte("{\"status\":\"stored\"}\n")}},
		Received:    map[moveKey]moveCursor{{"a", "s1"}: {patterns: []int{0, 2}, reports: 3, labels: 1}, {"b", "s1"}: {reports: 1}},
		Dropped:     map[string]int{"s2": 4},
	}
}

// TestSnapshotRoundTripsEveryField: decode(encode(state)) is the state, down
// to absent against empty AP lists and weights other than fusion's 1; so is
// a cycle record's view.
func TestSnapshotRoundTripsEveryField(t *testing.T) {
	want := fuzzState()
	data, err := encodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(data, newInterner())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot round trip\n got %#v\nwant %#v", got, want)
	}
	v, err := decodeCycle(encodeCycle(&view{fused: want.Fused, reliability: want.Reliability}), nil)
	if err != nil || !reflect.DeepEqual(v.fused, want.Fused) || !reflect.DeepEqual(v.reliability, want.Reliability) {
		t.Fatalf("cycle round trip (err %v)\n got %#v", err, v)
	}
}

// hugeCountSection is a 13-byte snapshot frame whose block claims n entries.
func hugeCountSection(kind byte, n uint32) []byte {
	return frame.Append(nil, kind, binary.LittleEndian.AppendUint32(nil, n))
}

// overrunEntry is a report entry whose AP count claims one AP more than the
// bytes after it hold.
func overrunEntry(key string) []byte {
	e, _ := appendReportEntry(nil, key, Report{Vehicle: "v", Segment: "s1", APs: []APReport{{X: 1, Y: 2, Credit: 3}}})
	at := 1 + 2 + len(key) + 3 + 4 // flags, then the key, vehicle and segment
	binary.LittleEndian.PutUint32(e[at:], 2)
	return e
}

func FuzzDecodeSnapshot(f *testing.F) {
	whole, err := encodeSnapshot(fuzzState())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		nil,
		whole,
		whole[:len(whole)-5],
		append(bytes.Clone(whole), 0),
		[]byte(snapshotMagic),
		append([]byte(snapshotMagic), hugeCountSection(secReports, 0xFFFFFFFF)...),
		append([]byte(snapshotMagic), hugeCountSection(secFused, 1<<31)...),
		append([]byte(snapshotMagic), hugeCountSection(secReceived, 1<<30)...),
		append([]byte(snapshotMagic), hugeCountSection(99, 0)...),
		append([]byte(snapshotMagic), frame.Append(nil, secReports, append(appendU32(nil, 1), overrunEntry("")...))...),
		append([]byte(snapshotMagic), frame.Append(nil, secReports, append(appendU32(nil, 1), overrunEntry("k")[:14]...))...),
		legacySnapshotJSON(f, fuzzState()),
		[]byte(`{"patterns":[{"id":7,"segment":"s"}]}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st snapshotState
		var err error
		decodeBounded(t, len(data), func() { st, err = decodeSnapshot(data, nil) })
		if err != nil || NewStore(10).restoreSnapshot(st) != nil {
			return
		}
		first, err := encodeSnapshot(st)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := decodeSnapshot(first, newInterner())
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if second, err := encodeSnapshot(again); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("encode(decode(x)) is not a fixed point (err %v)", err)
		}
	})
}

// FuzzApplyRecord replays a record into an empty store, then the log of
// records framed in more, and settles the log's last capture as recovery does
// at the end of a log.
func FuzzApplyRecord(f *testing.F) {
	st := fuzzState()
	block := []byte{3, 0, 0, 0}
	for i, r := range reportsOf(st.Reports) {
		block, _ = appendReportEntry(block, fmt.Sprintf("k%d", i), r)
	}
	add := func(kind byte, data []byte) { f.Add(kind, data, []byte(nil)) }
	add(recReports, block)
	add(recReports, block[:len(block)-1])
	add(recReports, binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))
	add(recReports, append(appendU32(nil, 1), overrunEntry("k")...))
	add(recCycle, encodeCycle(&view{fused: st.Fused, reliability: st.Reliability}))
	add(recCycle, binary.LittleEndian.AppendUint32(nil, 1<<30))
	add(recCapture, appendCapture(nil, [3]int{0, 0, 0}))
	add(recCapture, appendCapture(nil, [3]int{0, 0, 1})) // counts past the log's lengths
	add(recCapture, appendCapture(nil, [3]int{0, 0, 0})[:11])
	add(recPatternEntry, appendPatternRecord(nil, 0, "p", st.Patterns[0]))
	add(recPatternEntry, appendPatternRecord(nil, 0, "", st.Patterns[2])[:20])
	add(recLabelBlock, appendLabelsRecord(nil, "l", st.Labels[:1]))
	add(recLabelBlock, binary.LittleEndian.AppendUint32(appendStr(nil, ""), 1<<30))
	add(recPattern, []byte(`{"id":0,"segment":"s","aps":[{"x":1,"y":2,"credit":3}],"idemKey":"p"}`))
	add(recLabels, []byte(`{"labels":[{"vehicle":"v","taskId":0,"value":1}]}`))
	add(recLabels, []byte(`{"labels":[{"vehicle":"v","taskId":5,"value":1}]}`))
	add(recDrop, []byte(`{"segments":["s1"]}`))
	add(recDropBlock, appendBlock(nil, []string{"s1", "s2"}, appendStr))
	add(recDropBlock, binary.LittleEndian.AppendUint32(nil, 1<<30))
	add(recLegacyReport, []byte(`{"report":{"vehicle":"v","segment":"s","aps":[]},"idemKey":"r"}`))
	add(recLegacyBatch, []byte(`{"reports":[{"report":{"vehicle":"v","segment":"s","aps":null}}]}`))
	add(recLegacyCycle, []byte(`{"fused":{"s":[{"x":1,"y":2,"weight":1}]},"reliability":{"v":1}}`))
	src := NewStore(10)
	if err := src.restoreSnapshot(st); err != nil {
		f.Fatal(err)
	}
	blocks, err := decodeMove(moveOf(f, src, "src", "s1"))
	if err != nil {
		f.Fatal(err)
	}
	add(recMove, blocks[0].data)
	add(recMove, blocks[0].data[:len(blocks[0].data)-1])
	add(byte(14), []byte("x"))
	// Reports, a capture of them, then a drop of one of their segments before
	// more reports arrive: the drop trims the view the capture publishes.
	f.Add(recReports, block, slices.Concat(
		frame.Append(nil, recCapture, appendCapture(nil, [3]int{0, 0, 3})),
		frame.Append(nil, recDropBlock, appendBlock(nil, []string{"s1"}, appendStr)),
		frame.Append(nil, recReports, block[:4+len(block)/3]),
		frame.Append(nil, recCapture, appendCapture(nil, [3]int{0, 0, 1})),
	))
	f.Fuzz(func(t *testing.T, kind byte, data, more []byte) {
		s := NewStore(10)
		var err error
		decodeBounded(t, len(data), func() { err = s.applyRecord(wal.Record{Seq: 1, Kind: kind, Data: data}, nil) })
		if err != nil {
			return
		}
		switch kind {
		case recReports:
			// One encoding per value: the entries the store holds, their keys
			// put back, are the record.
			keys, _ := decodeReportKeys(data)
			again := appendU32(nil, s.reports.len())
			for i, key := range keys {
				e := s.reports.entry(i)
				again = append(binary.LittleEndian.AppendUint16(append(again, e[0]), uint16(len(key))), key...)
				again = append(again, e[3:]...)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("re-encoded %x, record is %x", again, data)
			}
		case recCapture:
			counts, _ := decodeCapture(data)
			if again := appendCapture(nil, counts); !bytes.Equal(again, data) {
				t.Fatalf("re-encoded %x, record is %x", again, data)
			}
		case recPatternEntry:
			key, p, _ := decodePatternRecord(data, nil)
			if again := appendPatternRecord(nil, p.ID, key, p); !bytes.Equal(again, data) {
				t.Fatalf("re-encoded %x, record is %x", again, data)
			}
		case recLabelBlock:
			key, ls, _ := decodeLabelsRecord(data, nil)
			if again := appendLabelsRecord(nil, key, ls); !bytes.Equal(again, data) {
				t.Fatalf("re-encoded %x, record is %x", again, data)
			}
		case recDropBlock:
			segments, _ := decodeSegments(data, nil)
			if again := appendBlock(nil, segments, appendStr); !bytes.Equal(again, data) {
				t.Fatalf("re-encoded %x, record is %x", again, data)
			}
		case recMove:
			m, _ := decodeMoveBlock(data, nil)
			if again := appendMoveBlock(nil, &m); !bytes.Equal(again, data) {
				t.Fatalf("re-encoded %x, record is %x", again, data)
			}
		case recCycle:
			// Segments may arrive unsorted or twice; the encoding of what
			// they decode to is canonical.
			first := encodeCycle(s.view.Load())
			v, err := decodeCycle(first, nil)
			if err != nil || !bytes.Equal(encodeCycle(v), first) {
				t.Fatalf("encode(decode(x)) is not a fixed point (err %v)", err)
			}
		}
		// The rest of the log: a replay that refuses a record stops there.
		_, _, err = frame.Walk(more, func(i int, kind byte, data []byte) error {
			return s.applyRecord(wal.Record{Seq: uint64(2 + i), Kind: kind, Data: data}, nil)
		})
		if err == nil {
			err = s.settle()
		}
		if err != nil {
			return
		}
		// What replay accepts the store can work on: the next cycle does not
		// panic. Whether it fuses anything is not this property.
		_, _ = s.Aggregate()
	})
}

// TestCannedBodiesAreWhatJSONWrites: the acknowledgements the store caches
// and replays are built without encoding/json, byte for byte what it writes.
func TestCannedBodiesAreWhatJSONWrites(t *testing.T) {
	for _, c := range []struct {
		got  cannedResponse
		want any
	}{
		{patternResponse(0), map[string]int{"id": 0}},
		{patternResponse(1234567), map[string]int{"id": 1234567}},
		{labelsResponse(0), map[string]int{"accepted": 0}},
		{labelsResponse(20000), map[string]int{"accepted": 20000}},
		{reportStored, map[string]string{"status": "stored"}},
	} {
		if want := mustJSON(t, c.want) + "\n"; string(c.got.body) != want {
			t.Fatalf("body %q, encoding/json writes %q", c.got.body, want)
		}
	}
}

// TestReportEntrySizeIsExact: the batch path sizes its blocks by
// reportEntrySize, which must be what appendReportEntry writes.
func TestReportEntrySizeIsExact(t *testing.T) {
	for i, c := range []struct {
		key string
		r   Report
	}{
		{"", Report{Vehicle: "v", Segment: "s"}},
		{"k-1", Report{Vehicle: "veh-0001", Segment: "seg-00042", APs: []APReport{}}},
		{strings.Repeat("k", 300), batchReport(3)},
	} {
		entry, err := appendReportEntry(nil, c.key, c.r)
		if err != nil || len(entry) != reportEntrySize(c.key, c.r) {
			t.Fatalf("case %d: %d bytes written (err %v), %d predicted", i, len(entry), err, reportEntrySize(c.key, c.r))
		}
	}
}

// TestDesignRecordKindsMatchCodec holds DESIGN.md's "Record kinds" table to
// the codec: one row for every kind decodeRecord accepts, one for the WAL's
// probe kind, and no other.
func TestDesignRecordKindsMatchCodec(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "**Record kinds.**")
	if !ok {
		t.Fatal("DESIGN.md has no **Record kinds.** section")
	}
	rows := map[int]int{} // kind → rows naming it
	inTable := false
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cell := strings.TrimSpace(strings.Split(line, "|")[1])
		num, _, _ := strings.Cut(cell, " ")
		if kind, err := strconv.ParseUint(num, 0, 8); err == nil {
			rows[int(kind)]++
		} else if cell != "kind" && !strings.HasPrefix(cell, "---") {
			t.Errorf("record kinds row %q does not start with a kind", line)
		}
	}
	str := func(b []byte) string { return string(b) }
	for kind := 0; kind < 256; kind++ {
		_, err := decodeRecord(byte(kind), nil, str)
		accepted := err == nil || !strings.HasPrefix(err.Error(), "unknown kind")
		want := 0
		if accepted || byte(kind) == wal.KindProbe {
			want = 1
		}
		if rows[kind] != want {
			t.Errorf("kind %d: %d rows in DESIGN.md's record kinds table, want %d (accepted by decodeRecord: %v)", kind, rows[kind], want, accepted)
		}
	}
}
