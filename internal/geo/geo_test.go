package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := (Point{1, 1}).Dist(Point{1, 1}); d != 0 {
		t.Fatalf("Dist to self = %v", d)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if s := p.Add(q); s != (Point{4, 1}) {
		t.Fatalf("Add = %v", s)
	}
	if s := p.Sub(q); s != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", s)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyNonFinite(ax, ay, bx, by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return math.Abs(a.Dist(b)-b.Dist(a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func anyNonFinite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.Abs(v) > 1e100 {
			return true
		}
	}
	return false
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Point{5, 1}, Point{2, 8})
	if r.Min != (Point{2, 1}) || r.Max != (Point{5, 8}) {
		t.Fatalf("NewRect = %+v", r)
	}
	if r.Width() != 3 || r.Height() != 7 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	if !r.Contains(Point{5, 5}) || !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) {
		t.Fatal("Contains should include interior and edges")
	}
	if r.Contains(Point{10.01, 5}) || r.Contains(Point{-0.01, 5}) {
		t.Fatal("Contains should exclude exterior")
	}
}

func TestRectExpandAndCenter(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 20})
	e := r.Expand(5)
	if e.Min != (Point{-5, -5}) || e.Max != (Point{15, 25}) {
		t.Fatalf("Expand = %+v", e)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	bb := BoundingBox(pts)
	if bb.Min != (Point{-2, -1}) || bb.Max != (Point{4, 5}) {
		t.Fatalf("BoundingBox = %+v", bb)
	}
	for _, p := range pts {
		if !bb.Contains(p) {
			t.Fatalf("bounding box excludes %v", p)
		}
	}
}

func TestBoundingBoxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BoundingBox(nil)
}

func TestCentroid(t *testing.T) {
	c := Centroid([]Point{{0, 0}, {2, 0}, {1, 3}})
	if math.Abs(c.X-1) > 1e-12 || math.Abs(c.Y-1) > 1e-12 {
		t.Fatalf("Centroid = %v", c)
	}
}

func TestTrajectoryBasics(t *testing.T) {
	tr, err := NewTrajectory([]Point{{0, 0}, {10, 0}, {10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Length() != 20 {
		t.Fatalf("Length = %v, want 20", tr.Length())
	}
	if p := tr.At(5); p != (Point{5, 0}) {
		t.Fatalf("At(5) = %v", p)
	}
	if p := tr.At(15); p != (Point{10, 5}) {
		t.Fatalf("At(15) = %v", p)
	}
	// Clamping.
	if p := tr.At(-1); p != (Point{0, 0}) {
		t.Fatalf("At(-1) = %v", p)
	}
	if p := tr.At(100); p != (Point{10, 10}) {
		t.Fatalf("At(100) = %v", p)
	}
}

func TestTrajectoryErrors(t *testing.T) {
	if _, err := NewTrajectory([]Point{{0, 0}}); err == nil {
		t.Fatal("expected error for single waypoint")
	}
	if _, err := NewTrajectory([]Point{{1, 1}, {1, 1}}); err == nil {
		t.Fatal("expected error for zero-length trajectory")
	}
}

func TestSampleByDistance(t *testing.T) {
	tr, err := NewTrajectory([]Point{{0, 0}, {10, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pts := tr.SampleByDistance(2.5)
	if len(pts) != 5 {
		t.Fatalf("samples = %d, want 5 (0,2.5,5,7.5,10)", len(pts))
	}
	if pts[len(pts)-1] != (Point{10, 0}) {
		t.Fatalf("last sample = %v, want endpoint", pts[len(pts)-1])
	}
	// Consecutive samples are equally spaced (except possibly the last).
	for i := 1; i < len(pts)-1; i++ {
		if d := pts[i-1].Dist(pts[i]); math.Abs(d-2.5) > 1e-9 {
			t.Fatalf("spacing %v at %d", d, i)
		}
	}
}

func TestTrajectorySamplesOnPathProperty(t *testing.T) {
	tr, err := NewTrajectory([]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	f := func(sRaw float64) bool {
		if math.IsNaN(sRaw) || math.IsInf(sRaw, 0) {
			return true
		}
		s := math.Mod(math.Abs(sRaw), tr.Length())
		p := tr.At(s)
		// Every sampled point must lie on one of the three segments.
		onSeg := func(a, b Point) bool {
			return math.Abs(a.Dist(p)+p.Dist(b)-a.Dist(b)) < 1e-9
		}
		w := tr.Waypoints()
		for i := 1; i < len(w); i++ {
			if onSeg(w[i-1], w[i]) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMphToMps(t *testing.T) {
	if v := MphToMps(25); math.Abs(v-11.176) > 1e-9 {
		t.Fatalf("25 mph = %v m/s", v)
	}
}
