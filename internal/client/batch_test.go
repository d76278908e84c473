package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/server"
)

func batchVehicle(t *testing.T, baseURL string) *CrowdVehicle {
	t.Helper()
	v, err := NewCrowdVehicle("bveh", baseURL, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	v.Outbox = NewOutbox(64)
	v.Metrics = NewMetrics(obs.NewRegistry())
	return v
}

func parkN(t *testing.T, v *CrowdVehicle, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		// Parked the way UploadReport parks: a frame that carries its key
		// as the body, the same key in Entry.Key.
		key := fmt.Sprintf("pk-%d", i)
		body, err := api.EncodeReportFrame(nil, key, api.Report{
			Vehicle: v.ID,
			Segment: fmt.Sprintf("pseg-%d", i),
			APs:     []api.APReport{{X: float64(i), Y: 1, Credit: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		v.Outbox.enqueue(Entry{Path: api.RouteReports, Body: body, Key: key, ContentType: api.FrameContentType})
	}
	if v.Outbox.Len() != n {
		t.Fatalf("parked %d entries, outbox holds %d", n, v.Outbox.Len())
	}
}

// TestDrainDropsTerminalPoisonEntries is the poison-pill regression: a
// server that answers 413 to every upload must not wedge the FIFO head —
// each terminal rejection is dropped and counted, the queue advances to
// empty, and the drain reports zero delivered without an error.
func TestDrainDropsTerminalPoisonEntries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		fmt.Fprint(w, `{"error":"body exceeds 1 bytes"}`)
	}))
	t.Cleanup(ts.Close)
	v := batchVehicle(t, ts.URL)
	const n = 4
	parkN(t, v, n)

	drained, err := v.DrainOutbox(context.Background())
	if err != nil {
		t.Fatalf("DrainOutbox err = %v, want nil (terminal entries drop, not stall)", err)
	}
	if drained != 0 {
		t.Fatalf("drained = %d, want 0", drained)
	}
	if v.Outbox.Len() != 0 {
		t.Fatalf("outbox still holds %d entries, want 0", v.Outbox.Len())
	}
	if got := v.Metrics.outboxDropped.Value(); got != n {
		t.Fatalf("crowdwifi_client_outbox_dropped_total{reason=\"terminal\"} = %d, want %d", got, n)
	}
}

// TestOutboxEvictionShowsOnMetrics: five uploads to a server answering 503
// through a 2-entry outbox park five and keep two, and the scrape says the
// other three were evicted.
func TestOutboxEvictionShowsOnMetrics(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	reg := obs.NewRegistry()
	v := &CrowdVehicle{ID: "evict", BaseURL: ts.URL, HTTP: http.DefaultClient, Outbox: NewOutbox(2), Metrics: NewMetrics(reg)}
	for i := 0; i < 5; i++ {
		err := v.UploadReport(context.Background(), api.Report{Vehicle: v.ID, Segment: fmt.Sprintf("s%d", i), APs: []api.APReport{{X: 1, Y: 1, Credit: 1}}})
		if !errors.Is(err, ErrQueued) {
			t.Fatalf("upload %d: %v, want ErrQueued", i, err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"crowdwifi_client_outbox_enqueued_total 5",
		"crowdwifi_client_outbox_depth 2",
		`crowdwifi_client_outbox_dropped_total{reason="evicted"} 3`,
		`crowdwifi_client_outbox_dropped_total{reason="terminal"} 0`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, sb.String())
		}
	}
}

// TestDrainBatchDeliversRunInOneRequest: a contiguous run of parked reports
// drains through a single POST /v1/reports/batch.
func TestDrainBatchDeliversRunInOneRequest(t *testing.T) {
	store := server.NewStore(12)
	var mu sync.Mutex
	calls := map[string]int{}
	inner := server.New(store)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls[r.URL.Path]++
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	v := batchVehicle(t, ts.URL)
	const n = 5
	parkN(t, v, n)

	drained, err := v.DrainOutbox(context.Background())
	if err != nil {
		t.Fatalf("DrainOutbox: %v", err)
	}
	if drained != n {
		t.Fatalf("drained = %d, want %d", drained, n)
	}
	if v.Outbox.Len() != 0 {
		t.Fatalf("outbox still holds %d entries", v.Outbox.Len())
	}
	mu.Lock()
	defer mu.Unlock()
	if calls[api.RouteReportsBatch] != 1 || calls[api.RouteReports] != 0 {
		t.Fatalf("calls = %v, want exactly 1 to %s and none to %s", calls, api.RouteReportsBatch, api.RouteReports)
	}
	if _, _, reports := store.Counts(); reports != n {
		t.Fatalf("server stored %d reports, want %d", reports, n)
	}
	if got := v.Metrics.outboxDrained.Value(); got != n {
		t.Fatalf("outbox drained counter = %d, want %d", got, n)
	}
}

// TestDrainBatchSettlesByPosition: a batch answer that is not one status per
// entry settles nothing. A server answering a 4-entry batch with three
// statuses, each naming a parked key, leaves all four parked, none counted
// drained or dropped, and the drain returns an error.
func TestDrainBatchSettlesByPosition(t *testing.T) {
	const n = 4
	var statuses []api.BatchEntryStatus
	for i := 0; i < n-1; i++ {
		statuses = append(statuses, api.BatchEntryStatus{Key: fmt.Sprintf("pk-%d", i), Status: http.StatusCreated})
	}
	frame, err := api.EncodeBatchStatusFrame(statuses)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.FrameContentType)
		w.Write(frame)
	}))
	t.Cleanup(ts.Close)
	v := batchVehicle(t, ts.URL)
	parkN(t, v, n)

	drained, err := v.DrainOutbox(context.Background())
	if err == nil || drained != 0 {
		t.Fatalf("DrainOutbox = (%d, %v), want (0, an error)", drained, err)
	}
	if v.Outbox.Len() != n {
		t.Fatalf("outbox holds %d entries, want all %d still parked", v.Outbox.Len(), n)
	}
	if d, p := v.Metrics.outboxDrained.Value(), v.Metrics.outboxDropped.Value(); d != 0 || p != 0 {
		t.Fatalf("counted %d drained and %d dropped, want none", d, p)
	}
}

// lossyDoer scripts a drain's transport: it refuses the first batch whole
// with a 413, and loses the response to the first single upload after the
// server has processed it. Everything else passes through.
type lossyDoer struct {
	next                  HTTPDoer
	refusedBatch, lostOne bool
}

func (d *lossyDoer) Do(req *http.Request) (*http.Response, error) {
	switch {
	case req.URL.Path == api.RouteReportsBatch && !d.refusedBatch:
		d.refusedBatch = true
		return &http.Response{StatusCode: http.StatusRequestEntityTooLarge, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(`{"error":"body too large"}`))}, nil
	case req.URL.Path == api.RouteReports && !d.lostOne:
		d.lostOne = true
		resp, err := d.next.Do(req)
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		return nil, errors.New("connection reset after the server answered")
	}
	return d.next.Do(req)
}

// TestDrainDedupesOneKeyAcrossRoutes: a parked report drained first through
// /v1/reports and then, its answer lost, through /v1/reports/batch is stored
// once. The single route reads the key from the header and the batch route
// from the frame, and both name the same key.
func TestDrainDedupesOneKeyAcrossRoutes(t *testing.T) {
	store := server.NewStore(12)
	ts := httptest.NewServer(server.New(store))
	t.Cleanup(ts.Close)
	v := batchVehicle(t, ts.URL)
	v.HTTP = &lossyDoer{next: http.DefaultClient}
	const n = 3
	parkN(t, v, n)

	// The batch is refused whole, so the head goes alone, and its answer is
	// lost: the entry stays parked though the server stored it.
	if drained, err := v.DrainOutbox(context.Background()); err == nil || drained != 0 {
		t.Fatalf("first DrainOutbox = (%d, %v), want (0, the lost answer)", drained, err)
	}
	if v.Outbox.Len() != n {
		t.Fatalf("outbox holds %d entries, want %d", v.Outbox.Len(), n)
	}
	if _, _, reports := store.Counts(); reports != 1 {
		t.Fatalf("server stored %d reports after the lost answer, want 1", reports)
	}

	// The next drain sends the same entry in a batch.
	if drained, err := v.DrainOutbox(context.Background()); err != nil || drained != n {
		t.Fatalf("second DrainOutbox = (%d, %v), want (%d, nil)", drained, err, n)
	}
	if _, _, reports := store.Counts(); reports != n {
		t.Fatalf("server stored %d reports, want %d: one copy of each", reports, n)
	}
	if v.Outbox.Len() != 0 {
		t.Fatalf("outbox still holds %d entries", v.Outbox.Len())
	}
}
