package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/api"
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

// shedFirst answers the first request of every method and path with a shed
// (a 503 carrying a 20 ms hint) and passes every later one to next.
type shedFirst struct {
	next http.Handler
	mu   sync.Mutex
	seen map[string]int
}

func (h *shedFirst) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.seen[r.Method+" "+r.URL.Path]++
	first := h.seen[r.Method+" "+r.URL.Path] == 1
	h.mu.Unlock()
	if first {
		w.Header().Set(api.RetryAfterMsHeader, "20")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	h.next.ServeHTTP(w, r)
}

// TestRunWaitsOutShedsOnEveryCall: retry.Doer answers a shed at once. The
// uploads park and the outbox flush delivers them; the calls with no outbox
// (the proposal, the task pull) wait out the hint and ask again. So a shed
// that clears does not end the run.
func TestRunWaitsOutShedsOnEveryCall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full engine")
	}
	store := server.NewStore(10)
	h := &shedFirst{next: server.New(store), seen: map[string]int{}}
	ts := httptest.NewServer(h)
	defer ts.Close()

	cfg := runConfig{ID: "shed-veh", ServerURL: ts.URL, Segment: "seg", Samples: 60, Seed: 7,
		OutboxCap: 8, DrainTimeout: time.Second, RetryAttempts: 2}
	if err := run(context.Background(), cfg, obs.Discard); err != nil {
		t.Fatalf("run after one shed per route: %v", err)
	}
	if patterns, _, reports := store.Counts(); patterns != 1 || reports != 1 {
		t.Errorf("stored %d patterns and %d reports, want 1 and 1", patterns, reports)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, route := range []string{"POST " + api.RoutePatterns, "GET " + api.RouteTasks, "POST " + api.RouteReports} {
		if h.seen[route] != 2 {
			t.Errorf("%s reached %d times, want 2 (the shed, then its retry)", route, h.seen[route])
		}
	}
}

// TestWaitOutShedsStopsAtAttempts: a shed that never clears is asked
// attempts times in all and then returned; any other error is returned at
// once, for the Doer has already retried it.
func TestWaitOutShedsStopsAtAttempts(t *testing.T) {
	for _, c := range []struct {
		err       error
		wantCalls int
	}{
		{&client.StatusError{Status: http.StatusServiceUnavailable, RetryAfter: time.Millisecond}, 3},
		{&client.StatusError{Status: http.StatusTooManyRequests, RetryAfter: time.Millisecond}, 3},
		{&client.StatusError{Status: http.StatusServiceUnavailable}, 1},
		{errors.New("connection refused"), 1},
	} {
		calls := 0
		_, err := waitOutSheds(context.Background(), 3, func() (int, error) {
			calls++
			return 0, c.err
		})
		if err != c.err || calls != c.wantCalls {
			t.Errorf("%v: %d calls, err %v; want %d calls and the error itself", c.err, calls, err, c.wantCalls)
		}
	}
}

// TestShedPauseJittersAndDoubles: each wait lies in [hint·2ⁿ, 1.5·hint·2ⁿ),
// capped at api.MaxRetryAfter, so a fleet shed together does not wake
// together, and one shed again backs off.
func TestShedPauseJittersAndDoubles(t *testing.T) {
	for _, c := range []struct {
		hint time.Duration
		n    int
		want time.Duration
	}{
		{100 * time.Millisecond, 0, 100 * time.Millisecond},
		{100 * time.Millisecond, 2, 400 * time.Millisecond},
		{2 * time.Second, 10, api.MaxRetryAfter},
		{time.Hour, 0, api.MaxRetryAfter},
	} {
		seen := map[time.Duration]bool{}
		for i := 0; i < 50; i++ {
			d := shedPause(c.hint, c.n)
			if d < c.want || d >= c.want+c.want/2 {
				t.Fatalf("shedPause(%v, %d) = %v, want in [%v, %v)", c.hint, c.n, d, c.want, c.want+c.want/2)
			}
			seen[d] = true
		}
		if len(seen) < 2 {
			t.Errorf("shedPause(%v, %d) gave one value in 50 draws; want jitter", c.hint, c.n)
		}
	}
}
