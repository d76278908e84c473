package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/chaos"
	"crowdwifi/internal/cs"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/server"
	"crowdwifi/internal/sim"
)

// TestRetryOutboxDrainStack is the resilience stack end to end: retries ride
// through transient 503s, a dead link parks the upload in the outbox, and a
// drain delivers it once the link recovers.
func TestRetryOutboxDrainStack(t *testing.T) {
	store := server.NewStore(10)
	handler := chaos.Middleware(server.New(store), chaos.Fault{}, 1) // zero faults: passthrough
	var failures atomic.Int32
	failures.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()

	sc := sim.UCI()
	area := sc.Area
	vehicle, err := NewCrowdVehicle("res-1", ts.URL, cs.EngineConfig{
		Channel: sc.Channel, Radius: sc.Radius, Lattice: sc.Lattice, Area: &area,
	})
	if err != nil {
		t.Fatal(err)
	}
	breaker := retry.NewBreaker(retry.BreakerConfig{})
	vehicle.HTTP = retry.NewDoer(nil, retry.Policy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	}, retry.WithBreaker(breaker))
	vehicle.Outbox = NewOutbox(0)

	if err := vehicle.Report(context.Background(), "seg"); err != nil {
		t.Fatalf("report through two 503s: %v", err)
	}
	if _, _, reports := store.Counts(); reports != 1 {
		t.Fatalf("reports = %d, want 1", reports)
	}

	vehicle.HTTP = chaos.NewInjector(nil, chaos.Fault{Drop: 1}, 42)
	if err := vehicle.Report(context.Background(), "seg"); !errors.Is(err, ErrQueued) {
		t.Fatalf("report over dead link = %v, want ErrQueued", err)
	}
	if vehicle.Outbox.Len() != 1 {
		t.Fatalf("outbox depth = %d, want 1", vehicle.Outbox.Len())
	}

	vehicle.HTTP = nil // link restored
	if n, err := vehicle.DrainOutbox(context.Background()); err != nil || n != 1 {
		t.Fatalf("drain = (%d, %v), want (1, nil)", n, err)
	}
	if _, _, reports := store.Counts(); reports != 2 {
		t.Fatalf("reports after drain = %d, want 2", reports)
	}
}
