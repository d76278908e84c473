package server

// The store's exact counts: what each kind of mutation costs the log in
// records, fsyncs and bytes, and what the write paths allocate. They are not
// timings, so a slow disk cannot blur them. A change that moves one edits the
// literal here, and its before and after is a reviewed diff.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/chaos"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/wal"
)

// walCounts reads what the log behind reg appended so far.
func walCounts(reg *obs.Registry) logCounts {
	return logCounts{
		records: uint64(reg.SumCounters("crowdwifi_wal_appends_total", nil)),
		fsyncs:  uint64(reg.SumCounters("crowdwifi_wal_fsyncs_total", nil)),
		bytes:   uint64(reg.SumCounters("crowdwifi_wal_append_bytes_total", nil)),
	}
}

func (c logCounts) minus(d logCounts) logCounts {
	return logCounts{c.records - d.records, c.fsyncs - d.fsyncs, c.bytes - d.bytes}
}

// snapshotted fills a fresh directory with offlineWorld's draw of shape sh
// (aggregated once), snapshots it and closes it.
func snapshotted(t *testing.T, sh offlineShape) string {
	t.Helper()
	s, dir := filled(t, sh, StorageOptions{})
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// filled opens a SyncOff store on a fresh directory under opts and fills it
// with offlineWorld's draw of shape sh, aggregated once.
func filled(t *testing.T, sh offlineShape, opts StorageOptions) (*Store, string) {
	t.Helper()
	opts.Dir, opts.Fsync = t.TempDir(), wal.SyncOff
	s, _, err := OpenStore(10, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	items, ps, ls := offlineWorld(1, sh)
	if err := errors.Join(s.AddReportBatch(ctx, items)...); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if _, err := s.AddPatternKeyed(ctx, "", p.Segment, p.APs); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddLabels(ls); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Aggregate(); err != nil {
		t.Fatal(err)
	}
	return s, opts.Dir
}

// logCounts is what one operation appends to a SyncAlways log.
type logCounts struct {
	records, fsyncs, bytes uint64
}

// wantLogCounts is one row per operation on countsFixture.
// Bytes are framed: 9 bytes of length, CRC and kind on top of the record.
var wantLogCounts = map[string]logCounts{
	"report":     {records: 1, fsyncs: 1, bytes: 87},
	"batch/32":   {records: 1, fsyncs: 1, bytes: 2403},
	"pattern":    {records: 1, fsyncs: 1, bytes: 84},
	"labels/20k": {records: 1, fsyncs: 1, bytes: 280017},
	"drop":       {records: 1, fsyncs: 1, bytes: 22},
	"move block": {records: 1, fsyncs: 1, bytes: 668},
	"cycle":      {records: 1, fsyncs: 1, bytes: 21},
}

// wantCycleAt50k is what a cycle logs over the mixed_aggregate preload (50 k
// reports, 2 000 patterns, 20 k labels): the record names what the cycle
// read, so it is the fixture's 21 bytes at any size of history. (A cycle
// that logged its fused map and reliabilities wrote 381,705 bytes here.)
var wantCycleAt50k = logCounts{records: 1, fsyncs: 1, bytes: 21}

// wantConcurrentReportFsyncs is what 8 concurrent keyed reports cost the log
// in fsyncs ("fsyncs / 8 concurrent reports") when the first one's fsync is
// held until the other seven are queued behind it: the first's, then one for
// the seven's group. (8 when each report paid its own under Store.mu.)
const wantConcurrentReportFsyncs = 2

// wantHeapObjectsPerRecoveredReport is the heap objects recovery allocates per
// report, amortised, booting from a snapshot of 40 k reports: the reports are
// checked and copied into one log of bytes, so no report gets an object of its
// own. (Decoded into structs, they took 45,141 objects: 1 per report.)
const wantHeapObjectsPerRecoveredReport = 0

// wantAllocs is what one call allocates on a SyncOff store, keyed, averaged
// over 100 calls. The counts are exact: what grows by doubling (the store's
// slices, the idempotency cache) adds less than one allocation per call over
// that many. Each was 2 more at 47c17ba, when an append allocated its frame
// and the 1-byte kind its CRC was taken over.
var wantAllocs = map[string]float64{
	"AddReportBatch/32": 46,
	"AddReportKeyed":    16,
	"AddPatternKeyed":   4,
}

// countsReport is the i-th report of the fixture: 8 vehicles over 4
// segments, two APs each.
func countsReport(i int) Report {
	x := float64(100*(i%4)) + float64(i%5)/4
	return Report{Vehicle: fmt.Sprintf("veh-%d", i%8), Segment: fmt.Sprintf("seg-%d", i%4),
		APs: []APReport{{X: x, Y: 50, Credit: 3}, {X: x + 40, Y: 70, Credit: 2}}}
}

// countsFixture is a small store with 64 reports, a pattern per segment and
// a label from every vehicle on each, logged to a fresh directory.
func countsFixture(t *testing.T, opts StorageOptions) *Store {
	t.Helper()
	opts.Dir = t.TempDir()
	s, _, err := OpenStore(10, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ctx := context.Background()
	items := make([]BatchItem, 64)
	for i := range items {
		items[i].Report = countsReport(i)
	}
	if err := errors.Join(s.AddReportBatch(ctx, items)...); err != nil {
		t.Fatal(err)
	}
	var labels []Label
	for seg := 0; seg < 4; seg++ {
		id, err := s.AddPatternKeyed(ctx, "", fmt.Sprintf("seg-%d", seg), []APReport{{X: float64(100 * seg), Y: 50, Credit: 3}})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 8; v++ {
			labels = append(labels, Label{Vehicle: fmt.Sprintf("veh-%d", v), TaskID: id, Value: 1 - 2*(v/7)})
		}
	}
	if err := s.AddLabels(labels); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCountsPerLogRecord(t *testing.T) {
	ctx := context.Background()
	keyed := func(prefix string, n int) []BatchItem {
		items := make([]BatchItem, n)
		for i := range items {
			items[i] = BatchItem{Key: fmt.Sprintf("%s-%d", prefix, i), Report: countsReport(i)}
		}
		return items
	}
	// The move is one block of a peer's segment seg-9: 8 reports, a pattern
	// and two labels.
	peer := NewStore(10)
	for i := 0; i < 8; i++ {
		r := countsReport(i)
		r.Segment = "seg-9"
		if err := peer.AddReportKeyed(ctx, "", r); err != nil {
			t.Fatal(err)
		}
	}
	id, err := peer.AddPatternKeyed(ctx, "", "seg-9", []APReport{{X: 900, Y: 50, Credit: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.AddLabels([]Label{{Vehicle: "veh-0", TaskID: id, Value: 1}, {Vehicle: "veh-1", TaskID: id, Value: -1}}); err != nil {
		t.Fatal(err)
	}
	move := moveOf(t, peer, "peer", "seg-9")
	labels := make([]Label, 20_000)
	for i := range labels {
		labels[i] = Label{Vehicle: fmt.Sprintf("veh-%d", i%8), TaskID: i % 4, Value: 1 - 2*(i%3/2)}
	}

	ops := map[string]func(s *Store) error{
		"report": func(s *Store) error { return s.AddReportKeyed(ctx, "key-1", countsReport(1)) },
		"batch/32": func(s *Store) error {
			return errors.Join(s.AddReportBatch(ctx, keyed("key", 32))...)
		},
		"pattern": func(s *Store) error {
			_, err := s.AddPatternKeyed(ctx, "key-p", "seg-2", []APReport{{X: 200, Y: 50, Credit: 3}, {X: 240, Y: 70, Credit: 2}})
			return err
		},
		"labels/20k": func(s *Store) error { return s.AddLabels(labels) },
		"drop":       func(s *Store) error { _, err := s.DropSegments(ctx, []string{"seg-3"}); return err },
		"move block": func(s *Store) error { _, err := s.applyMove(ctx, move); return err },
		"cycle":      func(s *Store) error { _, err := s.AggregateCycle(); return err },
	}
	for name, want := range wantLogCounts {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			s := countsFixture(t, StorageOptions{Fsync: wal.SyncAlways, Metrics: wal.NewMetrics(reg)})
			before := walCounts(reg)
			if err := ops[name](s); err != nil {
				t.Fatal(err)
			}
			if got := walCounts(reg).minus(before); got != want {
				t.Errorf("%s: %+v, want %+v", name, got, want)
			}
		})
	}
}

func TestCountsConcurrentReportFsyncs(t *testing.T) {
	ffs := chaos.NewFaultFS(nil)
	reg := obs.NewRegistry()
	s := countsFixture(t, StorageOptions{FS: ffs, Metrics: wal.NewMetrics(reg)})
	before := walCounts(reg)
	held, release := ffs.HoldSync()
	defer release()
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	add := func(i int) {
		defer wg.Done()
		errs[i] = s.AddReportKeyed(context.Background(), fmt.Sprintf("conc-%d", i), countsReport(i))
	}
	wg.Add(n)
	go add(0)
	<-held
	for i := 1; i < n; i++ {
		go add(i)
	}
	waitQueued(s, n-1)
	release()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if got := walCounts(reg).minus(before); got.records != n || got.fsyncs != wantConcurrentReportFsyncs {
		t.Errorf("%d concurrent reports: %d records and %d fsyncs, want %d and %d", n, got.records, got.fsyncs, n, wantConcurrentReportFsyncs)
	}
}

// waitQueued returns once n commits wait in s's queue for the next leader.
func waitQueued(s *Store, n int) {
	for queued := 0; queued < n; time.Sleep(time.Millisecond) {
		s.gmu.Lock()
		queued = len(s.queue)
		s.gmu.Unlock()
	}
}

func TestCountsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	ctx := context.Background()
	const runs = 100
	items := benchReportItems(rand.New(rand.NewSource(2)), 32*(runs+1), true)
	calls := map[string]func(s *Store, i int){
		"AddReportBatch/32": func(s *Store, i int) {
			if err := errors.Join(s.AddReportBatch(ctx, items[32*i:32*(i+1)])...); err != nil {
				t.Fatal(err)
			}
		},
		"AddReportKeyed": func(s *Store, i int) {
			if err := s.AddReportKeyed(ctx, items[i].Key, items[i].Report); err != nil {
				t.Fatal(err)
			}
		},
		"AddPatternKeyed": func(s *Store, i int) {
			if _, err := s.AddPatternKeyed(ctx, items[i].Key, items[i].Report.Segment, items[i].Report.APs); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, want := range wantAllocs {
		t.Run(name, func(t *testing.T) {
			s := countsFixture(t, StorageOptions{Fsync: wal.SyncOff})
			i := 0
			got := testing.AllocsPerRun(runs, func() {
				calls[name](s, i)
				i++
			})
			if got != want {
				t.Errorf("%s: %v allocs per call, want %v", name, got, want)
			}
		})
	}
}

// wantHandlerAllocs is what one request allocates through a warmed shard
// Server with everything a shard binary attaches on the request path: the
// tracer at sample rate 1, metrics and admission control. The store is
// countsFixture's (SyncOff, aggregated once for the lookup); an upload is
// one JSON report, a lookup a rectangle over the whole fixture. The request
// and its recorder are built outside the count.
var wantHandlerAllocs = map[string]float64{
	"upload": 101,
	"lookup": 59,
}

func TestCountsHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	body, err := json.Marshal(countsReport(1))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	newReq := map[string]func() *http.Request{
		"upload": func() *http.Request {
			return httptest.NewRequest(http.MethodPost, api.RouteReports, bytes.NewReader(body))
		},
		"lookup": func() *http.Request {
			return httptest.NewRequest(http.MethodGet, api.RouteLookup+"?xmin=0&ymin=0&xmax=400&ymax=100", nil)
		},
	}
	for name, want := range wantHandlerAllocs {
		t.Run(name, func(t *testing.T) {
			s := countsFixture(t, StorageOptions{Fsync: wal.SyncOff})
			if _, err := s.Aggregate(); err != nil {
				t.Fatal(err)
			}
			srv := New(s, WithMetrics(NewMetrics(obs.NewRegistry())),
				WithTracer(trace.NewTracer(trace.Config{SampleRate: 1})),
				WithOverload(overload.Options{}))
			// Warm every lazily built series and buffer, and fill the trace
			// store's ring, before counting.
			serve := func(req *http.Request, rec *httptest.ResponseRecorder) {
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
					t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
				}
			}
			for range 2 * trace.DefaultCapacity {
				serve(newReq[name](), httptest.NewRecorder())
			}
			reqs := make([]*http.Request, runs+1)
			recs := make([]*httptest.ResponseRecorder, runs+1)
			for i := range reqs {
				reqs[i], recs[i] = newReq[name](), httptest.NewRecorder()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			i := 0
			got := testing.AllocsPerRun(runs, func() {
				serve(reqs[i], recs[i])
				i++
			})
			if got != want {
				t.Errorf("%s: %v allocs per request, want %v", name, got, want)
			}
		})
	}
}

func TestCountsCycleAt50k(t *testing.T) {
	dir := snapshotted(t, mixedShape)
	reg := obs.NewRegistry()
	s, _, err := OpenStore(10, StorageOptions{Dir: dir, Fsync: wal.SyncAlways, Metrics: wal.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := walCounts(reg)
	if _, err := s.AggregateCycle(); err != nil {
		t.Fatal(err)
	}
	if got := walCounts(reg).minus(before); got != wantCycleAt50k {
		t.Errorf("a cycle at 50 k reports logged %+v, want %+v", got, wantCycleAt50k)
	}
}

func TestCountsRecoveredHeapObjects(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const reports = 40_000
	dir := snapshotted(t, offlineShape{segments: 2000, reports: reports, vehicles: 1000})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, stats, err := OpenStore(10, StorageOptions{Dir: dir})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !stats.SnapshotLoaded || stats.Reports != reports {
		t.Fatalf("recovered %+v", stats)
	}
	if got := (after.Mallocs - before.Mallocs) / reports; got != wantHeapObjectsPerRecoveredReport {
		t.Errorf("recovery allocated %d heap objects for %d reports: %d per report, want %d",
			after.Mallocs-before.Mallocs, reports, got, wantHeapObjectsPerRecoveredReport)
	}
}

// heapCost runs fn once with the collector off and returns the heap objects
// and bytes it allocated: a collection in between would add objects of the
// runtime's own.
func heapCost(fn func()) (objects, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// wantSnapshotCounts is what one Snapshot of the mixed_aggregate preload
// (aggregated once, on a SyncOff store) costs, and what OpenStore then spends
// recovering its directory. Objects and bytes are heap allocations, one run
// each with the collector off, and a row holds within ± its slack: a map of
// more than 1,024 entries grows by table splits that follow its random hash
// seed, and recovery fills four (2,500 fused segments, 1,000 reliabilities
// and the ≈ 3,500 names it interns); the snapshot's own few vary with the
// file calls.
//
// At 47c17ba a snapshot was encoded into one buffer, copying each report
// twice, and fsynced the active segment the compaction then removes (1 fsync,
// 113 objects, 17,663,552 bytes); recovery joined the reports into a copy and
// gave each fused segment its own slice (8,167 objects, 27,666,520 bytes).
var wantSnapshotCounts = map[string]struct{ want, slack uint64 }{
	"snapshot fsyncs":  {0, 0},
	"snapshot objects": {108, 8},
	"snapshot bytes":   {2_049_896, 1 << 10},
	"open objects":     {5_689, 16},
	"open bytes":       {16_738_480, 256 << 10},
}

func TestCountsSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	s, dir := filled(t, mixedShape, StorageOptions{Metrics: wal.NewMetrics(reg)})
	got := map[string]uint64{}
	var err error
	before := walCounts(reg)
	got["snapshot objects"], got["snapshot bytes"] = heapCost(func() { _, err = s.Snapshot() })
	if err != nil {
		t.Fatal(err)
	}
	got["snapshot fsyncs"] = walCounts(reg).minus(before).fsyncs
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var reopened *Store
	got["open objects"], got["open bytes"] = heapCost(func() { reopened, _, err = OpenStore(10, StorageOptions{Dir: dir}) })
	if err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	for name, row := range wantSnapshotCounts {
		if raceEnabled && name != "snapshot fsyncs" {
			continue // the race detector allocates on its own account
		}
		if got[name] < row.want-row.slack || got[name] > row.want+row.slack {
			t.Errorf("%s: %d, want %d ± %d", name, got[name], row.want, row.slack)
		}
	}
}

// wantCycleAllocs is what one cycle over the mixed_aggregate preload
// allocates in memory, at one worker and with the collector off: 41,890 at
// 47c17ba, when fusion allocated its scratch again for every segment.
const wantCycleAllocs = 5_329

func TestCountsCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	s := offlineStore(t, 1, mixedShape)
	setWorkers(t, 1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(1, func() {
		if _, err := s.Aggregate(); err != nil {
			t.Fatal(err)
		}
	})
	if got != wantCycleAllocs {
		t.Errorf("a cycle at 50 k reports allocated %v objects, want %v", got, wantCycleAllocs)
	}
}

// lookupScan is what a run of lookups read and returned, in fused APs.
type lookupScan struct {
	lookups, scanned, returned int
}

// wantLookupScan is lookup_large's store, drawn in-module: 40 k reports over
// 10 000 segments on a 22.6 km square, and lookups of 400 m squares placed at
// random inside it. scanned is what Store.Lookup counts as it reads; today it
// reads every fused AP of the view: 3,179 per AP returned, where bench/, which
// derives its figure from the full map's size, reads 3,177.
var wantLookupScan = lookupScan{lookups: 500, scanned: 39_531_000, returned: 12_436}

func TestCountsLookupScan(t *testing.T) {
	const side, window = 226.0 * 100, 400.0
	s := offlineStore(t, 1, offlineShape{segments: 10000, reports: 40000, vehicles: 1000})
	if _, err := s.Aggregate(); err != nil {
		t.Fatal(err)
	}
	var scanned atomic.Int64
	lookupScanned = &scanned
	t.Cleanup(func() { lookupScanned = nil })
	r := rand.New(rand.NewSource(3))
	got := lookupScan{lookups: wantLookupScan.lookups}
	for range got.lookups {
		at := geo.Point{X: r.Float64() * (side - window), Y: r.Float64() * (side - window)}
		got.returned += len(s.Lookup(geo.Rect{Min: at, Max: geo.Point{X: at.X + window, Y: at.Y + window}}))
	}
	got.scanned = int(scanned.Load())
	if got != wantLookupScan {
		t.Errorf("lookups read %+v (%.0f scanned per AP returned), want %+v", got, float64(got.scanned)/float64(got.returned), wantLookupScan)
	}
}

// wantTaskLabelsRead is what one /v1/tasks call reads on the mixed_aggregate
// preload: every one of its 20,000 labels, to count each task's labels and
// find the ones the vehicle answered. ROADMAP 16(a) takes it to 0.
const wantTaskLabelsRead = 20_000

func TestCountsTaskLabelsRead(t *testing.T) {
	s := offlineStore(t, 1, mixedShape)
	var read atomic.Int64
	taskLabelsRead = &read
	t.Cleanup(func() { taskLabelsRead = nil })
	const calls = 10
	for i := range calls {
		if tasks := s.AssignTasks(fmt.Sprintf("veh-%04d", i), 10); len(tasks) != 10 {
			t.Fatalf("call %d assigned %d tasks, want 10", i, len(tasks))
		}
	}
	if got := read.Load(); got != calls*wantTaskLabelsRead {
		t.Errorf("%d AssignTasks calls read %d labels, want %d each", calls, got, wantTaskLabelsRead)
	}
}

// taskGraph is what Fig. 7(a)'s crowd at ℓ = 10 looks like after going
// through the store (serveFig7a, seed 10): the connected components of the
// task graph AssignTasks built, and the hammers the cycle weighs below 0.5.
type taskGraph struct {
	components, hammersBelowHalf int
}

// wantTaskGraph is one component and no hammer lost. Ties broken by lowest
// id built 200 components, disjoint blocks of the vehicles that arrived
// together, and weighed 962 of 971 hammers below 0.5.
var wantTaskGraph = taskGraph{components: 1, hammersBelowHalf: 0}

func TestCountsTaskGraph(t *testing.T) {
	c := serveFig7a(t, 10, 10)
	got := taskGraph{components: c.components()}
	got.hammersBelowHalf, _ = c.hammersBelowHalf()
	if got != wantTaskGraph {
		t.Errorf("served task graph: %+v, want %+v", got, wantTaskGraph)
	}
}
