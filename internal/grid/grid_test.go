package grid

import (
	"math"
	"testing"
	"testing/quick"

	"crowdwifi/internal/geo"
)

func mustGrid(t *testing.T, area geo.Rect, lattice float64) *Grid {
	t.Helper()
	g, err := FromRect(area, lattice)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromRectDimensions(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 80, Y: 40}), 8)
	if g.NX != 11 || g.NY != 6 {
		t.Fatalf("grid dims %dx%d, want 11x6", g.NX, g.NY)
	}
	if g.N() != 66 {
		t.Fatalf("N = %d, want 66", g.N())
	}
}

func TestFromRectErrors(t *testing.T) {
	if _, err := FromRect(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 10}), 0); err == nil {
		t.Fatal("expected error for zero lattice")
	}
	if _, err := FromRect(geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 0, Y: 10}}, 5); err == nil {
		t.Fatal("expected error for degenerate area")
	}
}

func TestFromMeasurements(t *testing.T) {
	rps := []geo.Point{{X: 10, Y: 10}, {X: 50, Y: 30}}
	g, err := FromMeasurements(rps, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: bounding box expanded by the communication radius on each side.
	if g.Area.Min != (geo.Point{X: -90, Y: -90}) || g.Area.Max != (geo.Point{X: 150, Y: 130}) {
		t.Fatalf("area = %+v", g.Area)
	}
	if _, err := FromMeasurements(nil, 100, 10); err != ErrEmptyGrid {
		t.Fatalf("err = %v, want ErrEmptyGrid", err)
	}
}

func TestPointIndexRoundTrip(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 40, Y: 40}), 10)
	for n := 0; n < g.N(); n++ {
		p := g.Point(n)
		if got := g.Nearest(p); got != n {
			t.Fatalf("Nearest(Point(%d)) = %d", n, got)
		}
	}
}

func TestPointOutOfRangePanics(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 10}), 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Point(g.N())
}

func TestNearestClamps(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 20, Y: 20}), 10)
	// Far outside the area must clamp to a corner, not panic.
	n := g.Nearest(geo.Point{X: -100, Y: -100})
	if g.Point(n) != (geo.Point{X: 0, Y: 0}) {
		t.Fatalf("Nearest clamp = %v", g.Point(n))
	}
	n = g.Nearest(geo.Point{X: 1000, Y: 1000})
	if g.Point(n) != (geo.Point{X: 20, Y: 20}) {
		t.Fatalf("Nearest clamp = %v", g.Point(n))
	}
}

func TestNearestIsActuallyNearestProperty(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 50, Y: 30}), 7)
	f := func(xRaw, yRaw float64) bool {
		if math.IsNaN(xRaw) || math.IsNaN(yRaw) {
			return true
		}
		p := geo.Point{X: math.Mod(math.Abs(xRaw), 50), Y: math.Mod(math.Abs(yRaw), 30)}
		n := g.Nearest(p)
		dBest := g.Point(n).Dist(p)
		for m := 0; m < g.N(); m++ {
			if g.Point(m).Dist(p) < dBest-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCentroidSingleSpike(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 40, Y: 40}), 10)
	theta := make([]float64, g.N())
	n := g.Nearest(geo.Point{X: 20, Y: 30})
	theta[n] = 1
	p, ok := g.Centroid(theta, CentroidOptions{})
	if !ok {
		t.Fatal("centroid not found")
	}
	if p.Dist(geo.Point{X: 20, Y: 30}) > 1e-9 {
		t.Fatalf("centroid = %v, want (20,30)", p)
	}
}

func TestCentroidWeightedAverage(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 20, Y: 20}), 10)
	theta := make([]float64, g.N())
	theta[g.Nearest(geo.Point{X: 0, Y: 0})] = 3
	theta[g.Nearest(geo.Point{X: 10, Y: 0})] = 1
	p, ok := g.Centroid(theta, CentroidOptions{Threshold: 0.1})
	if !ok {
		t.Fatal("no centroid")
	}
	if math.Abs(p.X-2.5) > 1e-9 || p.Y != 0 {
		t.Fatalf("centroid = %v, want (2.5, 0)", p)
	}
}

func TestCentroidThresholdFilters(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 20, Y: 20}), 10)
	theta := make([]float64, g.N())
	theta[0] = 1.0
	theta[1] = 0.05 // below the 0.3 relative default
	p, ok := g.Centroid(theta, CentroidOptions{})
	if !ok {
		t.Fatal("no centroid")
	}
	if p != g.Point(0) {
		t.Fatalf("small coefficient not filtered: %v", p)
	}
}

func TestCentroidAllZero(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 20, Y: 20}), 10)
	if _, ok := g.Centroid(make([]float64, g.N()), CentroidOptions{}); ok {
		t.Fatal("zero theta must yield no centroid")
	}
}

func TestCentroidWrongLengthPanics(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 20, Y: 20}), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Centroid(make([]float64, 3), CentroidOptions{})
}

func TestSplitSupportTwoClusters(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100}), 10)
	theta := make([]float64, g.N())
	// Two well-separated spikes with small neighbours.
	a, b := geo.Point{X: 10, Y: 10}, geo.Point{X: 90, Y: 90}
	theta[g.Nearest(a)] = 1
	theta[g.Nearest(geo.Point{X: 20, Y: 10})] = 0.6
	theta[g.Nearest(b)] = 0.9
	theta[g.Nearest(geo.Point{X: 80, Y: 90})] = 0.5
	got := g.SplitSupport(theta, 2, CentroidOptions{Threshold: 0.1})
	if len(got) != 2 {
		t.Fatalf("clusters = %d, want 2", len(got))
	}
	// Each recovered point must be near one of the spikes.
	for _, p := range got {
		if p.Dist(a) > 15 && p.Dist(b) > 15 {
			t.Fatalf("cluster %v far from both true spikes", p)
		}
	}
}

func TestSplitSupportDegenerate(t *testing.T) {
	g := mustGrid(t, geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 20, Y: 20}), 10)
	if got := g.SplitSupport(make([]float64, g.N()), 2, CentroidOptions{}); got != nil {
		t.Fatalf("zero theta should yield nil, got %v", got)
	}
	if got := g.SplitSupport(make([]float64, g.N()), 0, CentroidOptions{}); got != nil {
		t.Fatalf("k=0 should yield nil, got %v", got)
	}
	// k larger than the support size collapses to the support size.
	theta := make([]float64, g.N())
	theta[0] = 1
	got := g.SplitSupport(theta, 5, CentroidOptions{Threshold: 0.1})
	if len(got) != 1 {
		t.Fatalf("clusters = %d, want 1", len(got))
	}
}
