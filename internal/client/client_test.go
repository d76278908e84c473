package client

import (
	"context"
	"net/http/httptest"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cs"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/server"
)

func testServer(t *testing.T) (*server.Store, string) {
	t.Helper()
	store := server.NewStore(12)
	ts := httptest.NewServer(server.New(store))
	t.Cleanup(ts.Close)
	return store, ts.URL
}

func engineCfg() cs.EngineConfig {
	return cs.EngineConfig{
		Channel:    radio.UCIChannel(),
		Radius:     50,
		Lattice:    10,
		WindowSize: 20,
		StepSize:   5,
	}
}

func driveBy(t *testing.T, v *CrowdVehicle, ap geo.Point, seed uint64) {
	t.Helper()
	ch := radio.UCIChannel()
	r := rng.New(seed)
	tr, err := geo.NewTrajectory([]geo.Point{{X: 0, Y: 20}, {X: 40, Y: 25}, {X: 50, Y: 60}})
	if err != nil {
		t.Fatal(err)
	}
	var ms []radio.Measurement
	for i, p := range tr.SampleByDistance(tr.Length() / 39) {
		ms = append(ms, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r), Time: float64(i)})
	}
	if err := v.Sense(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
}

func TestCrowdVehicleSenseAndReport(t *testing.T) {
	store, url := testServer(t)
	v, err := NewCrowdVehicle("veh-1", url, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	ap := geo.Point{X: 30, Y: 35}
	driveBy(t, v, ap, 1)
	ests := v.Estimates()
	if len(ests) == 0 {
		t.Fatal("vehicle found no APs")
	}
	if err := v.Report(context.Background(), "seg-a"); err != nil {
		t.Fatal(err)
	}
	// Server must now fuse one AP near the truth.
	if _, err := store.Aggregate(); err != nil {
		t.Fatal(err)
	}
	res := store.Lookup(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100}))
	if len(res) == 0 {
		t.Fatal("no fused APs after report")
	}
	best := 1e18
	for _, r := range res {
		if d := (geo.Point{X: r.X, Y: r.Y}).Dist(ap); d < best {
			best = d
		}
	}
	if best > 20 {
		t.Fatalf("fused AP %.1f m from truth", best)
	}
}

func TestProposeAndLabelFlow(t *testing.T) {
	_, url := testServer(t)
	v1, err := NewCrowdVehicle("v1", url, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewCrowdVehicle("v2", url, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	ap := geo.Point{X: 30, Y: 35}
	driveBy(t, v1, ap, 2)
	driveBy(t, v2, ap, 3)

	id, err := v1.ProposePattern(context.Background(), "seg")
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("pattern id = %d", id)
	}
	tasks, err := v2.PullTasks(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	labels, err := v2.LabelTasks(context.Background(), tasks, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 1 {
		t.Fatalf("labels = %d", len(labels))
	}
	// Both vehicles sensed the same AP, so v2 should confirm v1's pattern.
	if labels[0].Value != 1 {
		t.Fatalf("label = %d, want +1 (same AP seen)", labels[0].Value)
	}
}

func TestLabelRejectsForeignPattern(t *testing.T) {
	_, url := testServer(t)
	v1, err := NewCrowdVehicle("v1", url, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	driveBy(t, v1, geo.Point{X: 30, Y: 35}, 4)

	// A pattern nowhere near v1's observations.
	tasks := []api.Pattern{{ID: 0, Segment: "seg", APs: []api.APReport{{X: 500, Y: 500}}}}
	// Register the pattern server-side so the label is accepted.
	store, _ := testServer(t)
	_ = store
	// Use matchPattern directly for the decision logic.
	if got := matchPattern(tasks[0], v1.Estimates(), 15); got != -1 {
		t.Fatalf("foreign pattern confirmed: %d", got)
	}
}

func TestMatchPatternCountMismatch(t *testing.T) {
	own := []cs.Estimate{
		{Pos: geo.Point{X: 10, Y: 10}},
		{Pos: geo.Point{X: 50, Y: 50}},
		{Pos: geo.Point{X: 90, Y: 90}},
	}
	// Pattern matches one AP but misses two others by count ≥ 2.
	p := api.Pattern{APs: []api.APReport{{X: 10, Y: 10}}}
	if got := matchPattern(p, own, 10); got != -1 {
		t.Fatalf("count-mismatched pattern confirmed: %d", got)
	}
	// Pattern covering all three confirms.
	p = api.Pattern{APs: []api.APReport{{X: 10, Y: 10}, {X: 50, Y: 50}, {X: 90, Y: 90}}}
	if got := matchPattern(p, own, 10); got != 1 {
		t.Fatalf("matching pattern rejected: %d", got)
	}
	// No own estimates → reject.
	if got := matchPattern(p, nil, 10); got != -1 {
		t.Fatalf("empty estimates confirmed: %d", got)
	}
}

func TestUserVehicleLookup(t *testing.T) {
	store, url := testServer(t)
	if err := store.AddReport(api.Report{
		Vehicle: "v", Segment: "s",
		APs: []api.APReport{{X: 42, Y: 24, Credit: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Aggregate(); err != nil {
		t.Fatal(err)
	}
	u := NewUserVehicle(url)
	pts, err := u.Lookup(context.Background(), geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Dist(geo.Point{X: 42, Y: 24}) > 1e-9 {
		t.Fatalf("lookup = %v", pts)
	}
}

func TestAggregateAndReliabilityHelpers(t *testing.T) {
	store, url := testServer(t)
	if err := store.AddReport(api.Report{Vehicle: "v", Segment: "s", APs: []api.APReport{{X: 1, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	n, err := Aggregate(context.Background(), nil, url)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("fused = %d", n)
	}
	rel, err := Reliability(context.Background(), nil, url)
	if err != nil {
		t.Fatal(err)
	}
	if rel == nil {
		t.Fatal("nil reliability map")
	}
}

func TestSubmitLabelsError(t *testing.T) {
	_, url := testServer(t)
	v, err := NewCrowdVehicle("v", url, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Unknown task must surface the server's 400.
	if err := v.SubmitLabels(context.Background(), []api.Label{{Vehicle: "v", TaskID: 5, Value: 1}}); err == nil {
		t.Fatal("expected error for unknown task")
	}
}

func TestBadBaseURL(t *testing.T) {
	v, err := NewCrowdVehicle("v", "http://127.0.0.1:1", engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Report(context.Background(), "s"); err == nil {
		t.Fatal("expected connection error")
	}
	u := NewUserVehicle("http://127.0.0.1:1")
	if _, err := u.Lookup(context.Background(), geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1, Y: 1})); err == nil {
		t.Fatal("expected connection error")
	}
}
