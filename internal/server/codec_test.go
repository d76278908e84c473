package server

// The persisted-state codec's contract: a data directory in a retired format is
// refused, untouched, with the way to upgrade it; whatever sequence of
// mutations ran, what is on disk recovers to the live store's state byte for
// byte; and the decoders survive hostile bytes.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
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

// TestLegacyDataDirIsRefused: a data directory in a retired format — the JSON
// snapshot, or a record of kind 1 to 6 or 8 — fails to open with one error
// that names the last build that reads it, and this build writes nothing to
// it, so that build can still upgrade it.
func TestLegacyDataDirIsRefused(t *testing.T) {
	refused := func(t *testing.T, err error, what string) {
		t.Helper()
		if !errors.Is(err, errRetiredFormat) || !strings.Contains(err.Error(), what) || !strings.Contains(err.Error(), "6c672b1") {
			t.Fatalf("refused with %v, want %q and the last build that reads it", err, what)
		}
	}
	// testdata/datadir-v1 is what the build at 0c0e8a9, the last to persist
	// JSON, wrote (generate_test.go.txt beside it is the program): a JSON
	// snapshot, a log suffix holding kinds 1 to 6, and a torn tail. The
	// snapshot is refused before the log is opened, so even the tail stays.
	t.Run("json snapshot", func(t *testing.T) {
		const fixture = "testdata/datadir-v1/data"
		dir := copyDir(t, fixture)
		if s, _, err := OpenStore(10, StorageOptions{Dir: dir}); err == nil {
			s.Close()
			t.Fatal("a directory holding a JSON snapshot opened")
		} else {
			refused(t, err, "JSON snapshot")
		}
		_, err := ExportFromDir(dir, 10, "fixture", func(string) string { return "all" })
		refused(t, err, "JSON snapshot")
		entries, err := os.ReadDir(fixture)
		if err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadDir(dir)
		if err != nil || len(after) != len(entries) {
			t.Fatalf("the refused directory holds %d files (err %v), the fixture %d", len(after), err, len(entries))
		}
		for _, e := range entries {
			want, _ := os.ReadFile(filepath.Join(fixture, e.Name()))
			got, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s changed under a refused open (err %v)", e.Name(), err)
			}
		}
	})
	// A log this build wrote, then a record of a retired kind: the open
	// fails at that record.
	t.Run("retired kind", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openDurable(t, dir)
		for i := 0; i < 3; i++ {
			if err := s.AddReport(batchReport(i)); err != nil {
				t.Fatal(err)
			}
		}
		seq, err := s.capture().log.Append(3, []byte(`{"report":{"vehicle":"v","segment":"s","aps":[]},"idemKey":"r"}`))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, _, err := OpenStore(10, StorageOptions{Dir: dir}); err == nil {
			s.Close()
			t.Fatal("a log holding a kind-3 record opened")
		} else {
			refused(t, err, fmt.Sprintf("record %d: unknown kind 3", seq))
		}
		_, err = ExportFromDir(dir, 10, "fixture", func(string) string { return "all" })
		refused(t, err, fmt.Sprintf("record %d: unknown kind 3", seq))
	})
}

// TestRecoveryAgreesWithLiveStore is the codec's property: run a seeded random
// sequence of uploads, batches, patterns, labels, cycles, snapshots, drops,
// reopens and moves in and out against an in-memory store that is never
// recovered, and beside it against two directories — one that is only ever
// a log, and one that is snapshotted and reopened as the sequence says.
// Whatever each directory recovers to must equal the in-memory store in
// everything an export can see (every report, pattern and label, absent
// against empty AP lists, and their positions), in the derived state, in the
// idempotency cache and in the move tables.
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
		for _, s := range []*Store{ref, logOnly, snapped} {
			if err := fn(s); err != nil {
				t.Fatal(err)
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rnd.Intn(19); {
		case op < 5:
			k, r := key(), report()
			each(func(s *Store) error { return s.AddReportKeyed(ctx, k, r) })
		case op < 8:
			items := make([]BatchItem, 1+rnd.Intn(12))
			for i := range items {
				items[i] = BatchItem{Key: key(), Report: report()}
			}
			each(func(s *Store) error { return errors.Join(s.AddReportBatch(ctx, items)...) })
		case op < 10:
			k, seg, a := key(), fmt.Sprintf("seg-%d", rnd.Intn(6)), aps()
			each(func(s *Store) error { _, err := s.AddPatternKeyed(ctx, k, seg, a); return err })
		case op < 12:
			if len(ref.patterns) == 0 {
				continue
			}
			k, ls := key(), make([]Label, 1+rnd.Intn(4))
			for i := range ls {
				ls[i] = Label{Vehicle: fmt.Sprintf("v%d", rnd.Intn(5)), TaskID: rnd.Intn(len(ref.patterns)), Value: 1 - 2*rnd.Intn(2)}
			}
			each(func(s *Store) error { return s.AddLabelsKeyed(ctx, k, ls) })
		case op < 13:
			each(func(s *Store) error { _, err := s.AggregateCycle(); return err })
		case op < 14:
			seg := []string{fmt.Sprintf("seg-%d", rnd.Intn(6))}
			each(func(s *Store) error { _, err := s.DropSegments(ctx, seg); return err })
		case op < 15:
			if _, err := snapped.Snapshot(); err != nil {
				t.Fatal(err)
			}
		case op < 16:
			if err := snapped.Close(); err != nil {
				t.Fatal(err)
			}
			snapped = open(snappedDir)
		case op < 17: // a move in: new evidence, or one sent before
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
		}
	}

	state := func(s *Store) string {
		return fingerprint(t, s) + exportAll(t, s) + mustJSON(t, s.idem.snapshot()) + fmt.Sprintf("%v %v", s.received, s.dropped)
	}
	want := state(ref)
	for name, s := range map[string]*Store{"log only": logOnly, "snapshot + suffix": snapped} {
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
// to absent against empty AP lists and weights other than fusion's 1.
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
		// JSON snapshots, a retired format.
		[]byte(`{"patterns":[{"id":0,"segment":"s1"}],"labels":[],"reports":[{"vehicle":"v1","segment":"s1","aps":[]}],"fused":{},"reliability":{"v1":1},"idem":[]}`),
		[]byte(`{"patterns":[{"id":7,"segment":"s"}]}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st snapshotState
		var err error
		decodeBounded(t, len(data), func() { st, err = decodeSnapshot(data, nil) })
		if bytes.HasPrefix(data, []byte("{")) && !errors.Is(err, errRetiredFormat) {
			t.Fatalf("a JSON snapshot decoded (err %v)", err)
		}
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
	add(recCapture, appendCapture(nil, [3]int{0, 0, 0}))
	add(recCapture, appendCapture(nil, [3]int{0, 0, 1})) // counts past the log's lengths
	add(recCapture, appendCapture(nil, [3]int{0, 0, 0})[:11])
	add(recPatternEntry, appendPatternRecord(nil, 0, "p", st.Patterns[0]))
	add(recPatternEntry, appendPatternRecord(nil, 0, "", st.Patterns[2])[:20])
	add(recLabelBlock, appendLabelsRecord(nil, "l", st.Labels[:1]))
	add(recLabelBlock, binary.LittleEndian.AppendUint32(appendStr(nil, ""), 1<<30))
	add(recDropBlock, appendBlock(nil, []string{"s1", "s2"}, appendStr))
	add(recDropBlock, binary.LittleEndian.AppendUint32(nil, 1<<30))
	// Records of the retired kinds: the JSON pattern, labels, drop, report,
	// batch-chunk and cycle records, and the binary cycle record.
	add(1, []byte(`{"id":0,"segment":"s","aps":[{"x":1,"y":2,"credit":3}],"idemKey":"p"}`))
	add(2, []byte(`{"labels":[{"vehicle":"v","taskId":0,"value":1}]}`))
	add(2, []byte(`{"labels":[{"vehicle":"v","taskId":5,"value":1}]}`))
	add(5, []byte(`{"segments":["s1"]}`))
	add(3, []byte(`{"report":{"vehicle":"v","segment":"s","aps":[]},"idemKey":"r"}`))
	add(6, []byte(`{"reports":[{"report":{"vehicle":"v","segment":"s","aps":null}}]}`))
	add(4, []byte(`{"fused":{"s":[{"x":1,"y":2,"weight":1}]},"reliability":{"v":1}}`))
	add(8, nil)
	add(8, binary.LittleEndian.AppendUint32(nil, 1<<30))
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
		if retired := slices.Contains([]byte{1, 2, 3, 4, 5, 6, 8}, kind); retired != errors.Is(err, errRetiredFormat) {
			t.Fatalf("kind %d: err %v", kind, err)
		}
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
