package crowdwifi

import (
	"context"
	"net/http/httptest"
	"testing"

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
