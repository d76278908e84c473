package server

// Moves are log shipping: a segment travels as move blocks, lands as one
// logged record per block and is deduplicated by position, across retries,
// drops, restarts and compaction.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/frame"
	"crowdwifi/internal/wal"
)

// moveOf is the move that exports the named segments of s from source.
func moveOf(t testing.TB, s *Store, source string, segments ...string) []byte {
	t.Helper()
	return s.exportMove(source, func(seg string) string {
		if slices.Contains(segments, seg) {
			return "to"
		}
		return ""
	}, s.chunkBudget())["to"]
}

func postMove(t *testing.T, ts *httptest.Server, move []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/cluster/slice", api.FrameContentType, bytes.NewReader(move))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// movingReport is the i-th report of segment "moved"; all encode to one size.
func movingReport(i int) Report {
	return Report{Vehicle: fmt.Sprintf("v%d", i%7), Segment: "moved", APs: []APReport{{X: float64(i % 100), Y: 5, Credit: 1}}}
}

// moveSource holds n reports, 3 patterns and 6 labels of segment "moved",
// and a report of another segment.
func moveSource(t testing.TB, n int) *Store {
	t.Helper()
	s := NewStore(10)
	items := make([]BatchItem, n)
	for i := range items {
		items[i].Report = movingReport(i)
	}
	if err := errors.Join(s.AddReportBatch(context.Background(), items)...); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		id := addPattern(t, s, "moved", []APReport{{X: float64(10 * p), Y: 5, Credit: 2}})
		for v := 0; v < 2; v++ {
			if err := s.AddLabels([]Label{{Vehicle: fmt.Sprintf("v%d", v), TaskID: id, Value: 1 - 2*(p%2)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.AddReport(Report{Vehicle: "v0", Segment: "stays", APs: []APReport{}}); err != nil {
		t.Fatal(err)
	}
	return s
}

// wantMoved fails unless s holds segment "moved" of moveSource(n) once.
func wantMoved(t *testing.T, s *Store, n int) {
	t.Helper()
	if d := s.SegmentDigests()["moved"]; d.Reports != n || d.Patterns != 3 || d.Labels != 6 {
		t.Fatalf("receiver holds %d reports, %d patterns, %d labels of the segment, want %d, 3, 6", d.Reports, d.Patterns, d.Labels, n)
	}
}

// TestMoveTwiceLandsOnce: a move applied twice lands once, and leaves the
// idempotency cache to the clients — a key completed before the move still
// replays after it.
func TestMoveTwiceLandsOnce(t *testing.T) {
	move := moveOf(t, moveSource(t, 5000), "src", "moved")
	recv := NewStore(10)
	ts := httptest.NewServer(New(recv, WithCluster(ClusterOptions{Self: "dst", Members: []string{"dst"}})))
	defer ts.Close()
	client := Report{Vehicle: "c", Segment: "own", APs: []APReport{{X: 1, Y: 1, Credit: 1}}}
	resp := postKeyed(t, ts.URL+"/v1/reports", "client-1", client)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("client upload: status %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		resp := postMove(t, ts, move)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("apply %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	wantMoved(t, recv, 5000)
	resp = postKeyed(t, ts.URL+"/v1/reports", "client-1", client)
	resp.Body.Close()
	if resp.Header.Get("Idempotent-Replay") != "true" {
		t.Fatal("the client's key no longer replays after the move")
	}
	if _, _, n := recv.Counts(); n != 5001 {
		t.Fatalf("receiver holds %d reports, want 5001", n)
	}
}

// TestMoveAfterDropKeepsIdenticalReport: a report acked after its segment was
// moved and dropped is a new report, whatever its content.
func TestMoveAfterDropKeepsIdenticalReport(t *testing.T) {
	ctx := context.Background()
	src, owner := NewStore(10), NewStore(10)
	r := Report{Vehicle: "v", Segment: "s", APs: []APReport{{X: 1, Y: 2, Credit: 1}}}
	move := func() {
		t.Helper()
		if _, err := owner.applyMove(ctx, moveOf(t, src, "src", "s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.AddReport(r); err != nil {
		t.Fatal(err)
	}
	move()
	if _, err := src.DropSegments(ctx, []string{"s"}); err != nil {
		t.Fatal(err)
	}
	if err := src.AddReport(r); err != nil {
		t.Fatal(err)
	}
	move()
	if _, _, n := owner.Counts(); n != 2 {
		t.Fatalf("owner holds %d reports, want both acked ones", n)
	}
}

// TestMoveDurableReceiverAppliesOnce: what a durable receiver logged it has
// applied, whether it went down before answering or compacted its log since.
func TestMoveDurableReceiverAppliesOnce(t *testing.T) {
	ctx := context.Background()
	source := moveSource(t, 300)
	source.batchChunk = 2048
	move := moveOf(t, source, "src", "moved")
	blocks, err := decodeMove(move)
	if err != nil || len(blocks) < 3 {
		t.Fatalf("%d blocks (err %v), want several", len(blocks), err)
	}
	reopen := func(s *Store) *Store {
		t.Helper()
		dir := s.storage.Dir
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, _ = openDurable(t, dir)
		return s
	}
	applyAll := func(s *Store) {
		t.Helper()
		if _, err := s.applyMove(ctx, move); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("down after logging, before answering", func(t *testing.T) {
		recv, _ := openDurable(t, t.TempDir())
		if _, err := recv.log.Append(recMove, blocks[0].data); err != nil {
			t.Fatal(err)
		}
		recv = reopen(recv)
		applyAll(recv)
		wantMoved(t, recv, 300)
		recv = reopen(recv)
		defer recv.Close()
		wantMoved(t, recv, 300)
	})
	t.Run("log compacted between applies", func(t *testing.T) {
		recv, _ := openDurable(t, t.TempDir())
		if _, err := recv.applyMove(ctx, frame.Append(nil, recMove, blocks[0].data)); err != nil {
			t.Fatal(err)
		}
		if _, err := recv.Snapshot(); err != nil {
			t.Fatal(err)
		}
		applyAll(recv)
		wantMoved(t, recv, 300)
		recv = reopen(recv)
		defer recv.Close()
		wantMoved(t, recv, 300)
		before := recv.log.LastSeq()
		applyAll(recv)
		if after := recv.log.LastSeq(); after != before {
			t.Fatalf("a move applied in full already logged %d records", after-before)
		}
		wantMoved(t, recv, 300)
	})
}

// TestMoveLogsOneRecordPerBlock: a receiver logs a move one record per block,
// and a block holds entries up to the exporter's chunk budget.
func TestMoveLogsOneRecordPerBlock(t *testing.T) {
	ctx := context.Background()
	const n = 5000
	entry := reportEntrySize("", movingReport(0))
	header := 32 + len("src") + len("moved")
	for _, c := range []struct {
		budget int
		want   int
	}{
		{0, 1},                             // the default budget: 5,000 reports are one record
		{header + 64*entry, (n + 63) / 64}, // ⌈entry bytes ∕ (budget − header)⌉
		{header + 1000*entry + 7, (n + 999) / 1000}, // slack that fits no entry
	} {
		source := NewStore(10)
		source.batchChunk = c.budget
		items := make([]BatchItem, n)
		for i := range items {
			items[i].Report = movingReport(i)
		}
		if err := errors.Join(source.AddReportBatch(ctx, items)...); err != nil {
			t.Fatal(err)
		}
		move := moveOf(t, source, "src", "moved")
		if _, frames, _ := frame.Walk(move, nil); frames != c.want {
			t.Fatalf("budget %d: %d blocks, want %d", c.budget, frames, c.want)
		}
		recv, _ := openDurable(t, t.TempDir())
		before := recv.log.LastSeq()
		if _, err := recv.applyMove(ctx, move); err != nil {
			t.Fatal(err)
		}
		if got := recv.log.LastSeq() - before; got != uint64(c.want) {
			t.Fatalf("budget %d: %d records logged for %d blocks", c.budget, got, c.want)
		}
		recv.Close()
	}
}

// TestMoveRefusesJSON: a router of an older build posts a JSON slice; the
// shard refuses it and names the format it takes.
func TestMoveRefusesJSON(t *testing.T) {
	recv := NewStore(10)
	ts := httptest.NewServer(New(recv, WithCluster(ClusterOptions{Self: "dst", Members: []string{"dst"}})))
	defer ts.Close()
	resp := postJSONTo(t, ts, "/v1/cluster/slice", map[string]any{"source": "a", "reports": []any{}})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType || !strings.Contains(string(body), api.FrameContentType) {
		t.Fatalf("JSON slice: status %d body %s, want 415 naming %s", resp.StatusCode, body, api.FrameContentType)
	}
}

// TestSliceExportNeedsSegments: an export names its segments; a GET without
// ?segments=, the retired ?owner=&members= form included, answers 400.
func TestSliceExportNeedsSegments(t *testing.T) {
	ts := httptest.NewServer(New(moveSource(t, 4), WithCluster(ClusterOptions{Self: "a", Members: []string{"a"}})))
	defer ts.Close()
	for _, query := range []string{"", "?owner=b&members=a,b"} {
		resp, err := http.Get(ts.URL + "/v1/cluster/slice" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "?segments=") {
			t.Fatalf("GET slice%s: status %d body %s, want 400 naming ?segments=", query, resp.StatusCode, body)
		}
	}
}

// TestSegmentDigestsOfRecoveredStoreAgree: the digest hashes the fused list
// as the codec stores it, so a recovered store digests as the live one did,
// and one weight moved moves the digest.
func TestSegmentDigestsOfRecoveredStoreAgree(t *testing.T) {
	dir := t.TempDir()
	live, _ := openDurable(t, dir)
	defer live.Close()
	for i := 0; i < 40; i++ {
		if err := live.AddReport(batchReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, live.SegmentDigests())
	if got := mustJSON(t, diskState(t, dir).SegmentDigests()); got != want {
		t.Fatalf("recovered digests\n got %s\nwant %s", got, want)
	}

	v := live.view.Load()
	seg := sortedKeys(v.fused)[0]
	fused := map[string][]LookupResult{}
	for s, rs := range v.fused {
		fused[s] = rs
	}
	fused[seg] = slices.Clone(v.fused[seg])
	fused[seg][0].Weight += 0.25
	before := live.SegmentDigests()
	live.view.Store(&view{fused: fused, reliability: v.reliability})
	after := live.SegmentDigests()
	for s := range fused {
		if changed := after[s].FusedDigest != before[s].FusedDigest; changed != (s == seg) {
			t.Fatalf("segment %s: digest changed %v, want %v", s, changed, s == seg)
		}
	}
}

// snapshotSections lists the section kinds of dir's newest snapshot.
func snapshotSections(t *testing.T, s *Store) []byte {
	t.Helper()
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, data, err := wal.LatestSnapshot(s.storage.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []byte
	frame.Walk(data[len(snapshotMagic):], func(_ int, kind byte, _ []byte) error {
		if len(kinds) == 0 || kinds[len(kinds)-1] != kind {
			kinds = append(kinds, kind)
		}
		return nil
	})
	return kinds
}

// TestSnapshotSectionsOfAStoreThatNeverMoved: the move tables take snapshot
// sections only once there is something in them, so a store that never moved
// or dropped a segment writes the sections it always did.
func TestSnapshotSectionsOfAStoreThatNeverMoved(t *testing.T) {
	ctx := context.Background()
	s, _ := openDurable(t, t.TempDir())
	defer s.Close()
	id := addPattern(t, s, "a", []APReport{{X: 1, Y: 1, Credit: 1}})
	if err := s.AddLabelsKeyed(ctx, "l", []Label{{Vehicle: "v", TaskID: id, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.AddReportKeyed(ctx, fmt.Sprintf("r%d", i), batchReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	all := []byte{secPatterns, secLabels, secReports, secFused, secReliability, secIdem}
	if got := snapshotSections(t, s); !bytes.Equal(got, all) {
		t.Fatalf("sections %v, want %v", got, all)
	}
	if _, err := s.DropSegments(ctx, []string{batchReport(0).Segment}); err != nil {
		t.Fatal(err)
	}
	if got := snapshotSections(t, s); !bytes.Equal(got, append(slices.Clone(all), secDropped)) {
		t.Fatalf("after a drop, sections %v", got)
	}
	if _, err := s.applyMove(ctx, moveOf(t, moveSource(t, 5), "src", "moved")); err != nil {
		t.Fatal(err)
	}
	if got := snapshotSections(t, s); !bytes.Equal(got, append(slices.Clone(all), secReceived, secDropped)) {
		t.Fatalf("after a move in, sections %v", got)
	}
}

// FuzzDecodeMove holds the decoder of what a move brings from the network to
// the codec's three properties: no panic, heap in proportion to the input, and
// what is accepted re-encodes to itself.
func FuzzDecodeMove(f *testing.F) {
	src := NewStore(10)
	if err := src.restoreSnapshot(fuzzState()); err != nil {
		f.Fatal(err)
	}
	whole := src.exportMove("src", func(string) string { return "all" }, 96)["all"]
	keyed, _ := appendReportEntry(nil, "k", Report{Vehicle: "v", Segment: "s1"})
	u32 := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	for _, seed := range [][]byte{
		nil,
		whole,
		whole[:len(whole)-3],
		append(bytes.Clone(whole), 0),
		frame.Append(nil, recReports, []byte{0, 0, 0, 0}),
		frame.Append(nil, recMove, append(appendStr(appendStr(nil, "a"), "s1"), u32(0xFFFFFFFF)...)),
		frame.Append(nil, recMove, slices.Concat(appendStr(appendStr(nil, "a"), "s1"), make([]byte, 12), u32(0), u32(1), keyed, u32(0))),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var blocks []moveBlock
		var err error
		decodeBounded(t, len(data), func() { blocks, err = decodeMove(data) })
		if err != nil {
			return
		}
		var again []byte
		for i := range blocks {
			again = frame.Append(again, recMove, appendMoveBlock(nil, &blocks[i]))
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoded %x, move is %x", again, data)
		}
	})
}
