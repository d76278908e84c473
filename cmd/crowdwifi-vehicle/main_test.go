package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/client"
	"crowdwifi/internal/cs"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/server"
	"crowdwifi/internal/sim"
)

func TestRunOfflineWithCSVOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full engine")
	}
	out := filepath.Join(t.TempDir(), "ests.csv")
	cfg := runConfig{ID: "test-veh", Segment: "seg", OutPath: out, Samples: 120, Seed: 3,
		OutboxCap: 8, DrainTimeout: time.Second, RetryAttempts: 2}
	if err := run(context.Background(), cfg, obs.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty estimates CSV")
	}
}

func TestRunTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full engine")
	}
	// First run writes a trace indirectly: simulate, dump estimates; then
	// replay a hand-written trace file.
	trace := filepath.Join(t.TempDir(), "trace.csv")
	content := "time_s,x_m,y_m,rss_dbm,source\n"
	for i := 0; i < 30; i++ {
		content += "0,10,10,-60,0\n"
	}
	if err := os.WriteFile(trace, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{ID: "replay-veh", Segment: "seg", TracePath: trace, Seed: 1,
		OutboxCap: 8, DrainTimeout: time.Second, RetryAttempts: 2}
	if err := run(context.Background(), cfg, obs.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadTracePath(t *testing.T) {
	cfg := runConfig{ID: "v", Segment: "seg", TracePath: "/nonexistent/trace.csv", Samples: 10, Seed: 1}
	if err := run(context.Background(), cfg, obs.Discard); err == nil {
		t.Fatal("expected error for missing trace")
	}
}

// failNTimesDoer fails the first n requests with a transport error, then
// passes through to the real client.
type failNTimesDoer struct {
	remaining atomic.Int32
}

func (d *failNTimesDoer) Do(req *http.Request) (*http.Response, error) {
	if d.remaining.Add(-1) >= 0 {
		return nil, errors.New("link down")
	}
	return http.DefaultClient.Do(req)
}

// TestFlushOutboxDeliversQueuedUploads is the graceful-shutdown drain path:
// an upload that failed into the outbox is delivered by flushOutbox within
// its deadline once the link recovers.
func TestFlushOutboxDeliversQueuedUploads(t *testing.T) {
	store := server.NewStore(10)
	ts := httptest.NewServer(server.New(store))
	defer ts.Close()

	sc := sim.UCI()
	area := sc.Area
	vehicle, err := client.NewCrowdVehicle("flush-veh", ts.URL, cs.EngineConfig{
		Channel: sc.Channel, Radius: sc.Radius, Lattice: sc.Lattice, Area: &area,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two failures: the initial upload (queues the report) and the first
	// flush pass (exercises flushOutbox's retry loop).
	doer := &failNTimesDoer{}
	doer.remaining.Store(2)
	vehicle.HTTP = doer
	vehicle.Outbox = client.NewOutbox(8)

	err = vehicle.Report(context.Background(), "seg")
	if !errors.Is(err, client.ErrQueued) {
		t.Fatalf("report err = %v, want ErrQueued", err)
	}
	if _, _, reports := store.Counts(); reports != 0 {
		t.Fatalf("reports before flush = %d", reports)
	}

	flushOutbox(nil, vehicle, 5*time.Second, obs.Discard)

	if vehicle.Outbox.Len() != 0 {
		t.Fatalf("outbox depth after flush = %d, want 0", vehicle.Outbox.Len())
	}
	if _, _, reports := store.Counts(); reports != 1 {
		t.Fatalf("reports after flush = %d, want 1", reports)
	}
}

// TestFlushOutboxRespectsDeadline: with the server permanently unreachable,
// the flush gives up within its timeout instead of hanging shutdown.
func TestFlushOutboxRespectsDeadline(t *testing.T) {
	sc := sim.UCI()
	area := sc.Area
	vehicle, err := client.NewCrowdVehicle("stuck-veh", "http://127.0.0.1:1", cs.EngineConfig{
		Channel: sc.Channel, Radius: sc.Radius, Lattice: sc.Lattice, Area: &area,
	})
	if err != nil {
		t.Fatal(err)
	}
	down := &failNTimesDoer{}
	down.remaining.Store(1 << 30)
	vehicle.HTTP = down
	vehicle.Outbox = client.NewOutbox(8)

	if err := vehicle.Report(context.Background(), "seg"); !errors.Is(err, client.ErrQueued) {
		t.Fatalf("report err = %v, want ErrQueued", err)
	}
	start := time.Now()
	flushOutbox(nil, vehicle, 300*time.Millisecond, obs.Discard)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("flush took %v, want bounded by ~300ms deadline", elapsed)
	}
	if vehicle.Outbox.Len() != 1 {
		t.Fatalf("outbox depth = %d, want 1 (undeliverable entry retained)", vehicle.Outbox.Len())
	}
}
