package client

// The vehicle's exact counts: the bytes one upload, one lookup and one
// outbox drain put on the wire, request and response bodies both, and the
// heap objects that drain allocates. A roadside contact is short, so bytes
// are what a vehicle spends. They are not timings, so a slow box cannot blur
// them. A change that moves one edits the
// literal here, and its before and after is a reviewed diff.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/server"
)

// wantClientCounts is one row per measured quantity of the vehicle's
// traffic.
var wantClientCounts = map[string]int64{
	// One UploadReport of countsReport: one report frame. It was 307 as
	// JSON.
	"request bytes/upload":  225,
	"response bytes/upload": 20,
	// One UserVehicle.Lookup over the area holding countsReport's eight
	// APs, after one aggregation: eight fused APs in one lookup frame. It was
	// 260 as JSON.
	"request bytes/lookup":  0,
	"response bytes/lookup": 205,
	// One DrainOutbox of 32 parked reports: one POST of the 32 parked
	// frames, each carrying its idempotency key, and the 32 statuses in one
	// status frame. The statuses were 1,670 bytes as JSON.
	"requests/drain 32":       1,
	"request bytes/drain 32":  8_088,
	"response bytes/drain 32": 1_157,
	// The heap objects that one DrainOutbox of the same 32 parked reports
	// allocates, against a transport that answers a prebuilt status frame.
	// Skipped under -race. It was 245 when a drain decoded each parked frame
	// and encoded it again with its key.
	"allocs/drain 32": 72,
}

// countsReport is a fixed report of eight APs on a 25 m pitch, shaped like
// the benchmark generator's reports.
func countsReport(vehicle, segment string) api.Report {
	rep := api.Report{Vehicle: vehicle, Segment: segment, APs: make([]api.APReport, 8)}
	for j := range rep.APs {
		rep.APs[j] = api.APReport{X: 1000.5 + 25*float64(j), Y: 20.25 * float64(j%3), Credit: float64(2 + j%5)}
	}
	return rep
}

// wireCounter wraps a server and counts, per route, the requests and the
// request and response body bytes it sees. While down, it answers every
// request 503 and counts nothing.
type wireCounter struct {
	inner http.Handler
	down  atomic.Bool

	mu       sync.Mutex
	requests map[string]int64
	reqBytes map[string]int64
	rspBytes map[string]int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (c *wireCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.down.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	cw := &countingWriter{ResponseWriter: w}
	c.inner.ServeHTTP(cw, r)
	c.mu.Lock()
	c.requests[r.URL.Path]++
	c.reqBytes[r.URL.Path] += int64(len(body))
	c.rspBytes[r.URL.Path] += cw.n
	c.mu.Unlock()
}

func (c *wireCounter) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests, c.reqBytes, c.rspBytes = map[string]int64{}, map[string]int64{}, map[string]int64{}
}

// TestCountsClientWire pins the bytes the vehicle and the user vehicle put
// on the wire against an in-process server.
func TestCountsClientWire(t *testing.T) {
	wc := &wireCounter{inner: server.New(server.NewStore(12))}
	wc.reset()
	ts := httptest.NewServer(wc)
	t.Cleanup(ts.Close)
	ctx := context.Background()
	got := map[string]int64{}

	// The idempotency key's sequence number is the only part of its length
	// that varies, so every count below is exact.
	v := &CrowdVehicle{ID: "veh-0001", BaseURL: ts.URL, HTTP: http.DefaultClient}
	if err := v.UploadReport(ctx, countsReport(v.ID, "seg-00")); err != nil {
		t.Fatal(err)
	}
	got["request bytes/upload"] = wc.reqBytes[api.RouteReports]
	got["response bytes/upload"] = wc.rspBytes[api.RouteReports]

	if _, err := Aggregate(ctx, nil, ts.URL); err != nil {
		t.Fatal(err)
	}
	u := NewUserVehicle(ts.URL)
	aps, err := u.Lookup(ctx, geo.Rect{Min: geo.Point{X: 900, Y: -100}, Max: geo.Point{X: 1300, Y: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(aps) != 8 {
		t.Fatalf("lookup found %d APs, want 8", len(aps))
	}
	got["request bytes/lookup"] = wc.reqBytes[api.RouteLookup]
	got["response bytes/lookup"] = wc.rspBytes[api.RouteLookup]

	// Park 32 reports: each upload meets a 503 and goes to the outbox.
	const parked = 32
	v.Outbox = NewOutbox(64)
	wc.down.Store(true)
	for i := 0; i < parked; i++ {
		if err := v.UploadReport(ctx, countsReport(v.ID, fmt.Sprintf("seg-%02d", i))); err == nil {
			t.Fatalf("upload %d was delivered to a server that is down", i)
		}
	}
	wc.down.Store(false)
	wc.reset()
	n, err := v.DrainOutbox(ctx)
	if err != nil || n != parked {
		t.Fatalf("DrainOutbox = %d, %v; want %d delivered", n, err, parked)
	}
	got["requests/drain 32"] = wc.requests[api.RouteReportsBatch]
	got["request bytes/drain 32"] = wc.reqBytes[api.RouteReportsBatch]
	got["response bytes/drain 32"] = wc.rspBytes[api.RouteReportsBatch]

	if !raceEnabled {
		got["allocs/drain 32"] = drainAllocs(t, parked)
	}

	for row, want := range wantClientCounts {
		if _, ok := got[row]; !ok && raceEnabled {
			continue // an allocation row under -race
		}
		if got[row] != want {
			t.Errorf("%s = %d, want %d", row, got[row], want)
		}
	}
}

// statusDoer answers every request with one prebuilt response body, so a
// drain measured against it counts only the vehicle's own allocations.
type statusDoer struct {
	status int
	body   []byte
}

func (d statusDoer) Do(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: d.status, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(d.body))}, nil
}

// drainAllocs parks n reports the way UploadReport parks them, then counts
// the allocations of one DrainOutbox of them against a transport that
// accepts every entry.
func drainAllocs(t *testing.T, n int) int64 {
	t.Helper()
	ctx := context.Background()
	v := &CrowdVehicle{ID: "veh-0001", HTTP: statusDoer{status: http.StatusServiceUnavailable}, Outbox: NewOutbox(n)}
	for i := 0; i < n; i++ {
		if err := v.UploadReport(ctx, countsReport(v.ID, fmt.Sprintf("seg-%02d", i))); err == nil {
			t.Fatalf("upload %d was delivered to a server that is down", i)
		}
	}
	parked := v.Outbox.entries
	statuses := make([]api.BatchEntryStatus, len(parked))
	for i, e := range parked {
		statuses[i] = api.BatchEntryStatus{Key: e.Key, Status: http.StatusCreated}
	}
	frame, err := api.EncodeBatchStatusFrame(statuses)
	if err != nil {
		t.Fatal(err)
	}
	v.HTTP = statusDoer{status: http.StatusOK, body: frame}
	v.Metrics = NewMetrics(obs.NewRegistry())

	// Every run drains its own copy of the parked entries, built beforehand.
	const runs = 20
	boxes := make([]*Outbox, runs+1)
	for i := range boxes {
		boxes[i] = NewOutbox(n)
		boxes[i].entries = slices.Clone(parked)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		v.Outbox = boxes[i]
		i++
		if got, err := v.DrainOutbox(ctx); err != nil || got != n {
			t.Fatalf("DrainOutbox = %d, %v; want %d delivered", got, err, n)
		}
	})
	return int64(allocs)
}
