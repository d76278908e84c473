package crowdwifi

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
)

func TestPublicAPIPipeline(t *testing.T) {
	// End-to-end through the public facade only: sense → engine → server →
	// user lookup.
	sc := UCIScenario()
	store := NewServerStore(12)
	ts := httptest.NewServer(NewServerHandler(store))
	defer ts.Close()

	area := sc.Area
	cfg := EngineConfig{
		Channel:     sc.Channel,
		Radius:      sc.Radius,
		Lattice:     sc.Lattice,
		Area:        &area,
		WindowSize:  60,
		StepSize:    10,
		MergeRadius: 1.5 * sc.Lattice,
		Select:      SelectOptions{MaxK: 8},
	}
	vehicle, err := NewCrowdVehicle("t-1", ts.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := sc.Drive(sim.DriveConfig{Trajectory: sim.UCIDrive(), NumSamples: 180, SNR: 30}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := vehicle.Sense(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	ests := vehicle.Estimates()
	if len(ests) < 6 {
		t.Fatalf("vehicle found %d APs, want most of 8", len(ests))
	}
	if err := vehicle.Report(context.Background(), "seg"); err != nil {
		t.Fatal(err)
	}
	n, err := Aggregate(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no fused APs")
	}
	user := NewUserVehicle(ts.URL)
	aps, err := user.Lookup(context.Background(), sc.Area)
	if err != nil {
		t.Fatal(err)
	}
	if got := MeanMatchedDistance(sc.APs, aps); got > 10 {
		t.Fatalf("fused lookup error %.1f m, want < 10", got)
	}
	if _, err := Reliability(context.Background(), ts.URL); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if got := CountingError(8, 10); got != 0.25 {
		t.Fatalf("CountingError = %v", got)
	}
	truth := []Point{{X: 0, Y: 0}}
	est := []Point{{X: 3, Y: 4}}
	if got := MeanMatchedDistance(truth, est); got != 5 {
		t.Fatalf("MeanMatchedDistance = %v", got)
	}
	if got := LocalizationError(truth, est, 10); got != 0.5 {
		t.Fatalf("LocalizationError = %v", got)
	}
	ests := []Estimate{{Pos: Point{X: 1, Y: 2}}, {Pos: Point{X: 3, Y: 4}}}
	pts := EstimatePositions(ests)
	if len(pts) != 2 || pts[1] != (Point{X: 3, Y: 4}) {
		t.Fatalf("EstimatePositions = %v", pts)
	}
	if UCIChannel().Exponent != 1.76 {
		t.Fatal("UCIChannel mismatch")
	}
	if len(UCIScenario().APs) != 8 {
		t.Fatal("UCIScenario mismatch")
	}
	tr, err := NewTrajectory([]Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	if err != nil || tr.Length() != 10 {
		t.Fatalf("NewTrajectory: %v, %v", tr, err)
	}
	if _, err := NewEngine(EngineConfig{}); err == nil {
		t.Fatal("invalid engine config accepted")
	}
}

func TestFacadeTraceCSV(t *testing.T) {
	ms := []Measurement{
		{Time: 1, Pos: Point{X: 2, Y: 3}, RSS: -55, Source: 0},
		{Time: 2, Pos: Point{X: 4, Y: 5}, RSS: -60, Source: -1},
	}
	var buf bytes.Buffer
	if err := WriteMeasurementsCSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMeasurementsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != ms[0] || back[1] != ms[1] {
		t.Fatalf("round trip = %+v", back)
	}
	ests := []Estimate{{Pos: Point{X: 7, Y: 8}, Credit: 3}}
	buf.Reset()
	if err := WriteEstimatesCSV(&buf, ests); err != nil {
		t.Fatal(err)
	}
	eBack, err := ReadEstimatesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(eBack) != 1 || eBack[0].Pos != ests[0].Pos || eBack[0].Credit != 3 {
		t.Fatalf("estimate round trip = %+v", eBack)
	}
}

func TestFacadeResilience(t *testing.T) {
	// The resilience stack through the public facade only: retries ride
	// through transient 503s, a dead link parks the upload in the outbox,
	// and a drain delivers it once the link recovers.
	store := NewServerStore(10)
	handler := NewChaosMiddleware(NewServerHandler(store), ChaosFault{}, 1) // zero faults: passthrough
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

	sc := UCIScenario()
	area := sc.Area
	vehicle, err := NewCrowdVehicle("res-1", ts.URL, EngineConfig{
		Channel: sc.Channel, Radius: sc.Radius, Lattice: sc.Lattice, Area: &area,
	})
	if err != nil {
		t.Fatal(err)
	}
	breaker := NewBreaker(BreakerConfig{})
	vehicle.HTTP = NewRetryDoer(nil, RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	}, breaker)
	vehicle.Outbox = NewOutbox(0)

	if err := vehicle.Report(context.Background(), "seg"); err != nil {
		t.Fatalf("report through two 503s: %v", err)
	}
	if _, _, reports := store.Counts(); reports != 1 {
		t.Fatalf("reports = %d, want 1", reports)
	}

	vehicle.HTTP = NewChaosDoer(nil, ChaosFault{Drop: 1}, 42)
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

func TestFacadeTopology(t *testing.T) {
	aps := []Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 500, Y: 0}}
	g, err := BuildInterferenceGraph(aps, 80)
	if err != nil {
		t.Fatal(err)
	}
	if g.MeanDegree() != 2.0/3 {
		t.Fatalf("mean degree = %v", g.MeanDegree())
	}
	if comps := g.Components(); len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	area := Rect{Min: Point{X: 0, Y: 0}, Max: Point{X: 100, Y: 100}}
	rep, err := AnalyzeCoverage(aps[:2], area, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CoveredFraction <= 0 || rep.CoveredFraction > 1 {
		t.Fatalf("coverage = %v", rep.CoveredFraction)
	}
}
