package server

// Tests for the Store's lock discipline: whole-history passes run on captured
// prefixes beside live traffic, readers see only published views. None of
// them reaches into the Store to hold a cycle open — the stores are sized so
// a cycle lasts tens of milliseconds, and traffic simply runs beside it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/frame"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/wal"
)

// Segment i of the sized fixture sits at x = 100·i on the y = 50 line; the
// tests put their own segments on other lines so a rectangle picks out one
// population.
var (
	everything = geo.NewRect(geo.Point{X: -1e9, Y: -1e9}, geo.Point{X: 1e9, Y: 1e9})
	doomedRow  = geo.NewRect(geo.Point{X: -1e9, Y: -1100}, geo.Point{X: 1e9, Y: -900})
	uploadRow  = geo.NewRect(geo.Point{X: -1e9, Y: 1900}, geo.Point{X: 1e9, Y: 2100})
	// keptRows is everything but the doomed line: what a drop never changes.
	keptRows = geo.NewRect(geo.Point{X: -1e9, Y: 0}, geo.Point{X: 1e9, Y: 2100})
)

// loadSized fills store with segs segments of perSeg two-AP reports, one
// pattern per eighth segment and a label from every vehicle on each, so a
// cycle has inference and fusion work that grows with segs·perSeg.
func loadSized(tb testing.TB, store *Store, segs, perSeg int) {
	tb.Helper()
	items := make([]BatchItem, 0, segs*perSeg)
	for s := 0; s < segs; s++ {
		x := float64(100 * s)
		for v := 0; v < perSeg; v++ {
			j := float64(v%5) / 4
			items = append(items, BatchItem{Report: Report{
				Vehicle: fmt.Sprintf("veh-%d", v),
				Segment: fmt.Sprintf("seg-%04d", s),
				APs:     []APReport{{X: x + j, Y: 50 + j, Credit: 3}, {X: x + 40 + j, Y: 70 - j, Credit: 2}},
			}})
		}
	}
	if err := errors.Join(store.AddReportBatch(context.Background(), items)...); err != nil {
		tb.Fatal(err)
	}
	var labels []Label
	for s := 0; s < segs; s += 8 {
		id := addPattern(tb, store, fmt.Sprintf("seg-%04d", s), []APReport{{X: float64(100 * s), Y: 50, Credit: 3}})
		for v := 0; v < perSeg; v++ {
			val := 1
			if v == perSeg-1 && s%16 == 0 {
				val = -1 // a dissenter keeps inference off the trivial fixed point
			}
			labels = append(labels, Label{Vehicle: fmt.Sprintf("veh-%d", v), TaskID: id, Value: val})
		}
	}
	if err := store.AddLabels(labels); err != nil {
		tb.Fatal(err)
	}
}

// lookupBytes is the JSON a lookup of area serves.
func lookupBytes(tb testing.TB, store *Store, area geo.Rect) string {
	tb.Helper()
	b, err := json.Marshal(store.Lookup(area))
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

func reliabilityBytes(tb testing.TB, store *Store) string {
	tb.Helper()
	b, err := json.Marshal(store.Reliability())
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// post is postJSON for goroutines other than the test's own: it reports
// instead of calling t.Fatal.
func post(url string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// stringSet is a set goroutines add observations to.
type stringSet struct {
	mu sync.Mutex
	m  map[string]bool
}

func (s *stringSet) add(v string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string]bool{}
	}
	s.m[v] = true
}

// TestConcurrentTrafficEqualsSerialReplay runs every kind of store traffic at
// once — single uploads, batch uploads, labels, lookups, Reliability,
// periodic cycles, a Snapshot and a DropSegments — and holds the result
// to three standards: nothing is refused, no reader ever sees a state that is
// not some cycle's whole output, and what the concurrent run left on disk
// replays serially to the same bytes.
func TestConcurrentTrafficEqualsSerialReplay(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(10, StorageOptions{Dir: dir, Fsync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	loadSized(t, store, 240, 25)
	// A segment to drop mid-run, on a line of its own so the drop does not
	// change what keptRows lookups are checked against.
	for v := 0; v < 3; v++ {
		if err := store.AddReport(Report{Vehicle: fmt.Sprintf("veh-%d", v), Segment: "doomed",
			APs: []APReport{{X: 5, Y: -1000, Credit: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(store))
	defer ts.Close()

	// published holds every state a reader may legitimately see: the empty
	// start and each cycle's output, recorded by the goroutine that ran it.
	var published, publishedRel, seen, seenRel stringSet
	published.add(lookupBytes(t, store, keptRows))
	publishedRel.add(reliabilityBytes(t, store))

	const batches, batchSize = 8, 8
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	var dropped atomic.Bool
	var uploads, cycles atomic.Int64

	writers.Add(1)
	go func() { // single uploads, each followed by a label so reliability moves
		defer writers.Done()
		for i := 0; i < 24 || cycles.Load() < 3; i++ { // until cycles have run beside the traffic
			status, body, err := post(ts.URL+"/v1/reports", Report{Vehicle: fmt.Sprintf("veh-%d", i%25),
				Segment: fmt.Sprintf("up-%03d", i), APs: []APReport{{X: float64(100 * i), Y: 2000, Credit: 1}}})
			if err != nil || status != http.StatusCreated {
				t.Errorf("upload %d: status %d err %v body %s", i, status, err, body)
				return
			}
			uploads.Add(1)
			status, body, err = post(ts.URL+"/v1/labels", []Label{{Vehicle: fmt.Sprintf("late-%d", i%7), TaskID: i % 30, Value: 1 - 2*(i%2)}})
			if err != nil || status != http.StatusOK {
				t.Errorf("label %d: status %d err %v body %s", i, status, err, body)
				return
			}
		}
	}()
	writers.Add(1)
	go func() { // batch uploads
		defer writers.Done()
		for b := 0; b < batches; b++ {
			var req api.BatchRequest
			for j := 0; j < batchSize; j++ {
				n := b*batchSize + j
				req.Entries = append(req.Entries, api.BatchEntry{Key: fmt.Sprintf("b-%d", n), Report: Report{
					Vehicle: fmt.Sprintf("veh-%d", n%25), Segment: fmt.Sprintf("bat-%03d", n),
					APs: []APReport{{X: float64(100 * n), Y: 2050, Credit: 1}}}})
			}
			status, body, err := post(ts.URL+"/v1/reports/batch", req)
			var resp api.BatchResponse
			if err == nil {
				err = json.Unmarshal(body, &resp)
			}
			if err != nil || status != http.StatusOK || len(resp.Results) != batchSize {
				t.Errorf("batch %d: status %d err %v body %s", b, status, err, body)
				return
			}
			for _, r := range resp.Results {
				if r.Status != http.StatusCreated {
					t.Errorf("batch %d entry %s: status %d (%s)", b, r.Key, r.Status, r.Error)
				}
			}
		}
	}()
	writers.Add(1)
	go func() { // one snapshot and one drop, mid-traffic
		defer writers.Done()
		time.Sleep(20 * time.Millisecond)
		if _, err := store.Snapshot(); err != nil {
			t.Errorf("snapshot: %v", err)
		}
		if n, err := store.DropSegments(context.Background(), []string{"doomed"}); err != nil || n != 3 {
			t.Errorf("drop: %d reports, err %v", n, err)
		}
		dropped.Store(true)
	}()
	readers.Add(1)
	go func() { // periodic cycles; the only publisher of the checked rows
		defer readers.Done()
		for {
			if _, err := store.AggregateCycle(); err != nil {
				t.Errorf("cycle: %v", err)
				return
			}
			published.add(lookupBytes(t, store, keptRows))
			publishedRel.add(reliabilityBytes(t, store))
			cycles.Add(1)
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond): // periodic, not saturating
			}
		}
	}()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				wasDropped := dropped.Load()
				seen.add(lookupBytes(t, store, keptRows))
				seenRel.add(reliabilityBytes(t, store))
				if wasDropped && lookupBytes(t, store, doomedRow) != "[]" {
					t.Error("dropped segment served after DropSegments returned")
				}
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond): // leave the one CPU of -cpu 1 to the writers
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	for got := range seen.m {
		if !published.m[got] {
			t.Fatalf("a lookup observed a state no cycle published (%d bytes; %d states published)", len(got), len(published.m))
		}
	}
	for got := range seenRel.m {
		if !publishedRel.m[got] {
			t.Fatalf("Reliability observed a state no cycle published: %s", got)
		}
	}
	if len(published.m) < 3 {
		t.Fatalf("only %d distinct states published: cycles did not overlap the traffic", len(published.m))
	}

	// Quiesced: one final cycle, then the directory is replayed serially.
	if _, err := store.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	wantLookup, wantRel := lookupBytes(t, store, everything), reliabilityBytes(t, store)
	_, wantLabels, wantReports := store.Counts()
	if want := 240*25 + int(uploads.Load()) + batches*batchSize; wantReports != want {
		t.Fatalf("%d reports stored, want %d", wantReports, want)
	}
	if lookupBytes(t, store, uploadRow) == "[]" || lookupBytes(t, store, doomedRow) != "[]" {
		t.Fatal("final cycle lost the concurrent uploads or kept the dropped segment")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, stats := openDurable(t, dir)
	defer replayed.Close()
	if !stats.SnapshotLoaded {
		t.Fatal("mid-traffic snapshot was not used by recovery")
	}
	if _, l, r := replayed.Counts(); l != wantLabels || r != wantReports {
		t.Fatalf("replay holds %d labels %d reports, want %d %d", l, r, wantLabels, wantReports)
	}
	if lookupBytes(t, replayed, everything) != wantLookup || reliabilityBytes(t, replayed) != wantRel {
		t.Fatal("recovered view differs from the last one published")
	}
	if _, err := replayed.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	if lookupBytes(t, replayed, everything) != wantLookup || reliabilityBytes(t, replayed) != wantRel {
		t.Fatal("a cycle over the serially replayed evidence differs from the concurrent run's")
	}
}

// TestReportPathsEncodeBeforeTheLock: whatever a report path writes to the
// log it encodes before it takes mu — the lock covers the append and the
// in-memory mutation, never an encode. Seen from outside: with mu held by
// someone else, a report and a batch entry whose records would not fit the log
// are each refused on their encoded size alone, without waiting for the lock.
// (A cycle's record is a fixed 12 bytes.)
func TestReportPathsEncodeBeforeTheLock(t *testing.T) {
	store, _, err := OpenStore(10, StorageOptions{Dir: t.TempDir(), Fsync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	giant := Report{Vehicle: "v", Segment: "s", APs: make([]APReport, wal.MaxRecordBytes/24+1)}

	store.mu.Lock()
	defer store.mu.Unlock()
	for name, call := range map[string]func() error{
		"AddReportKeyed": func() error { return store.AddReportKeyed(context.Background(), "k", giant) },
		"AddReportBatch": func() error {
			return errors.Join(store.AddReportBatch(context.Background(), []BatchItem{{Key: "k", Report: giant}})...)
		},
	} {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrRecordTooLarge) {
				t.Errorf("%s: err = %v, want ErrRecordTooLarge", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited for the store lock before its record was encoded", name)
		}
	}
}

// TestRefusedMutationLogsNothing: a mutation that commit refuses under mu —
// by its check, or by the log for its size — and a move block that adds
// nothing append no record and change nothing: not the log's last sequence,
// not the counts, not the idempotency cache.
func TestRefusedMutationLogsNothing(t *testing.T) {
	ctx := context.Background()
	move := moveOf(t, moveSource(t, 3), "src", "moved")
	blocks, err := decodeMove(move)
	if err != nil {
		t.Fatal(err)
	}
	gap := blocks[0] // from a source none of whose patterns landed yet
	gap.source, gap.first[0] = "gap", 1
	gapData := appendMoveBlock(nil, &gap)
	oversized := make([]APReport, wal.MaxRecordBytes/24+1)
	longName := strings.Repeat("v", wal.MaxRecordBytes)
	for _, c := range []struct {
		name string
		call func(s *Store) error
		want func(error) bool
	}{
		{"label of no task", func(s *Store) error {
			return s.AddLabelsKeyed(ctx, "k", []Label{{Vehicle: "v", TaskID: 0, Value: 1}, {Vehicle: "v", TaskID: 99, Value: 1}})
		}, func(err error) bool { return err != nil && !errors.Is(err, ErrDurability) }},
		{"move block with a pattern gap", func(s *Store) error {
			_, err := s.applyMove(ctx, frame.Append(nil, recMove, gapData))
			return err
		}, func(err error) bool { return err != nil && !errors.Is(err, ErrDurability) }},
		{"move block with nothing new", func(s *Store) error {
			st, err := s.applyMove(ctx, move)
			if err == nil && st.Deduped == 0 {
				err = fmt.Errorf("nothing deduplicated: %+v", st)
			}
			return err
		}, func(err error) bool { return err == nil }},
		{"pattern over the record limit", func(s *Store) error {
			_, err := s.AddPatternKeyed(ctx, "k", "s", oversized)
			return err
		}, func(err error) bool { return errors.Is(err, ErrRecordTooLarge) }},
		{"labels over the record limit", func(s *Store) error {
			return s.AddLabelsKeyed(ctx, "k", []Label{{Vehicle: longName, TaskID: 0, Value: 1}})
		}, func(err error) bool { return errors.Is(err, ErrRecordTooLarge) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _ := openDurable(t, t.TempDir())
			defer s.Close()
			addPattern(t, s, "s", nil)
			if _, err := s.applyMove(ctx, move); err != nil {
				t.Fatal(err)
			}
			state := func() string {
				p, l, r := s.Counts()
				return fmt.Sprintf("seq %d, counts (%d,%d,%d), idem %s", s.log.LastSeq(), p, l, r, mustJSON(t, s.idem.snapshot()))
			}
			before := state()
			if err := c.call(s); !c.want(err) {
				t.Fatalf("err = %v", err)
			}
			if after := state(); after != before {
				t.Fatalf("a refused mutation changed the store\n got %s\nwant %s", after, before)
			}
		})
	}
}

// TestUploadDuringCycleIsFusedByTheNextCycle: an upload that arrives while a
// cycle runs is acknowledged with 201, is left whole out of that cycle's
// output, and is fused by the next one.
func TestUploadDuringCycleIsFusedByTheNextCycle(t *testing.T) {
	store := NewStore(10)
	loadSized(t, store, 240, 25)
	ts := httptest.NewServer(New(store))
	defer ts.Close()

	// Uploads run from before the cycle starts until after it returns, one
	// segment each, so the cycle's capture falls between two of them.
	for round, next := 0, 0; ; round++ {
		if round == 5 {
			t.Fatal("no upload landed inside a cycle in 5 rounds")
		}
		cycleDone := make(chan error, 1)
		first := next
		go func() {
			_, err := store.AggregateCycle()
			cycleDone <- err
		}()
		inFlightEnd := -1 // uploads [first, inFlightEnd) were acknowledged before the cycle returned
		for inFlightEnd < 0 || next < inFlightEnd+3 {
			resp := postJSON(t, ts.URL+"/v1/reports", Report{Vehicle: "veh-0", Segment: fmt.Sprintf("up-%04d", next),
				APs: []APReport{{X: float64(100 * next), Y: 2000, Credit: 1}}})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("upload %d during a cycle: status %d", next, resp.StatusCode)
			}
			next++
			if inFlightEnd < 0 {
				select {
				case err := <-cycleDone:
					if err != nil {
						t.Fatal(err)
					}
					inFlightEnd = next
				default:
				}
			}
		}

		// The cycle fused a prefix of the uploads: in whole or not at all.
		fused := store.Lookup(uploadRow)
		for i, r := range fused {
			if r.X != float64(100*i) {
				t.Fatalf("cycle output holds upload at x=%v in slot %d: not a prefix of the acknowledged order", r.X, i)
			}
		}
		if len(fused) < first {
			t.Fatalf("cycle output holds %d uploads, fewer than the %d the previous cycle fused", len(fused), first)
		}
		if _, err := store.AggregateCycle(); err != nil {
			t.Fatal(err)
		}
		if got := len(store.Lookup(uploadRow)); got != next {
			t.Fatalf("next cycle fused %d uploads, want all %d", got, next)
		}
		if len(fused) < inFlightEnd {
			return // an upload acknowledged before the cycle returned was outside its capture
		}
	}
}

// TestDropSegmentsRacingCycleNeverResurrects: a cycle that captured a
// segment's reports before the drop must not publish its fused results after
// it, and the digest must agree.
func TestDropSegmentsRacingCycleNeverResurrects(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(10, StorageOptions{Dir: dir, Fsync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	loadSized(t, store, 120, 25)
	for round := 0; round < 6; round++ {
		seg := fmt.Sprintf("doomed-%d", round)
		for v := 0; v < 3; v++ {
			if err := store.AddReport(Report{Vehicle: fmt.Sprintf("veh-%d", v), Segment: seg,
				APs: []APReport{{X: float64(100 * round), Y: -1000, Credit: 1}}}); err != nil {
				t.Fatal(err)
			}
		}
		cycleDone := make(chan error, 1)
		go func() {
			_, err := store.AggregateCycle()
			cycleDone <- err
		}()
		// Let the cycle get anywhere from its capture to its fusion.
		time.Sleep(time.Duration(round) * 3 * time.Millisecond)
		if n, err := store.DropSegments(context.Background(), []string{seg}); err != nil || n != 3 {
			t.Fatalf("round %d: dropped %d reports, err %v", round, n, err)
		}
		check := func(when string) {
			if got := lookupBytes(t, store, doomedRow); got != "[]" {
				t.Fatalf("round %d, %s: dropped segment is served: %s", round, when, got)
			}
			if d := store.SegmentDigests()[seg]; d.HasData() {
				t.Fatalf("round %d, %s: dropped segment is in the digest: %+v", round, when, d)
			}
		}
		check("drop returned")
		if err := <-cycleDone; err != nil {
			t.Fatal(err)
		}
		check("cycle returned")
	}
	want := lookupBytes(t, store, everything)
	if want == "[]" {
		t.Fatal("nothing fused")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, _ := openDurable(t, dir)
	defer replayed.Close()
	if got := lookupBytes(t, replayed, everything); got != want {
		t.Fatal("replayed directory serves a different map than the live store did")
	}
}

// TestDropSegmentsWaitsOutACycle: a cycle holds cycle from its capture to its
// record, and a drop waits for it, so no drop is logged between a capture and
// the record that names it — the counts a capture record holds are positions
// in the history replay rebuilds.
func TestDropSegmentsWaitsOutACycle(t *testing.T) {
	store, _, err := OpenStore(10, StorageOptions{Dir: t.TempDir(), Fsync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for v := 0; v < 3; v++ {
		if err := store.AddReport(Report{Vehicle: fmt.Sprintf("veh-%d", v), Segment: "doomed", APs: []APReport{{X: 1, Y: 2, Credit: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	seq := store.capture().log.LastSeq()
	store.cycle.Lock() // a cycle in flight
	dropped := make(chan int, 1)
	go func() {
		n, err := store.DropSegments(context.Background(), []string{"doomed"})
		if err != nil {
			t.Error(err)
		}
		dropped <- n
	}()
	select {
	case <-dropped:
		t.Fatal("DropSegments returned while a cycle was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	if _, _, r := store.Counts(); r != 3 || store.capture().log.LastSeq() != seq {
		t.Fatalf("with a cycle in flight the drop logged or removed something: %d reports, last seq %d, was %d",
			r, store.capture().log.LastSeq(), seq)
	}
	store.cycle.Unlock()
	if n := <-dropped; n != 3 {
		t.Fatalf("dropped %d reports once the cycle ended, want 3", n)
	}
}
