package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
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
		// Parked the way UploadReport parks: a key-less frame
		// as the body, the key in Entry.Key.
		body, err := api.EncodeReportFrame(nil, "", api.Report{
			Vehicle: v.ID,
			Segment: fmt.Sprintf("pseg-%d", i),
			APs:     []api.APReport{{X: float64(i), Y: 1, Credit: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		v.Outbox.enqueue(Entry{Path: api.RouteReports, Body: body, Key: fmt.Sprintf("pk-%d", i), ContentType: api.FrameContentType})
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

// TestDrainBatchDeliversRunInOneRequest: with BatchSize set, a contiguous
// run of parked reports drains through a single POST /v1/reports/batch.
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
	v.BatchSize = 16
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
