// Package geo provides the planar geometry primitives shared by the
// CrowdWiFi simulators and estimators: points, rectangles, and waypoint
// trajectories sampled by arc length or travel time.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in metres on the local planar map.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String renders the point with centimetre precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle given by its lower-left and upper-right
// corners.
type Rect struct {
	Min, Max Point
}

// NewRect builds the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Expand grows the rectangle by margin on every side.
func (r Rect) Expand(margin float64) Rect {
	return Rect{
		Min: Point{r.Min.X - margin, r.Min.Y - margin},
		Max: Point{r.Max.X + margin, r.Max.Y + margin},
	}
}

// BoundingBox returns the tightest rectangle containing all points.
// It panics on an empty input.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geo: bounding box of empty point set")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// Centroid returns the arithmetic mean of the points. It panics on an empty
// input.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geo: centroid of empty point set")
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	n := float64(len(pts))
	return Point{c.X / n, c.Y / n}
}

// Trajectory is a polyline of waypoints traversed at constant speed.
type Trajectory struct {
	waypoints []Point
	cumLen    []float64 // cumulative arc length at each waypoint
}

// NewTrajectory builds a trajectory over at least two waypoints.
func NewTrajectory(waypoints []Point) (*Trajectory, error) {
	if len(waypoints) < 2 {
		return nil, fmt.Errorf("geo: trajectory needs >= 2 waypoints, got %d", len(waypoints))
	}
	cum := make([]float64, len(waypoints))
	for i := 1; i < len(waypoints); i++ {
		cum[i] = cum[i-1] + waypoints[i-1].Dist(waypoints[i])
	}
	if cum[len(cum)-1] == 0 {
		return nil, fmt.Errorf("geo: trajectory has zero length")
	}
	return &Trajectory{waypoints: waypoints, cumLen: cum}, nil
}

// Length returns the total arc length in metres.
func (t *Trajectory) Length() float64 { return t.cumLen[len(t.cumLen)-1] }

// Waypoints returns a copy of the waypoint list.
func (t *Trajectory) Waypoints() []Point {
	out := make([]Point, len(t.waypoints))
	copy(out, t.waypoints)
	return out
}

// At returns the position at arc length s, clamped to the trajectory ends.
func (t *Trajectory) At(s float64) Point {
	if s <= 0 {
		return t.waypoints[0]
	}
	total := t.Length()
	if s >= total {
		return t.waypoints[len(t.waypoints)-1]
	}
	// Binary search for the segment containing s.
	lo, hi := 0, len(t.cumLen)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if t.cumLen[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := t.cumLen[hi] - t.cumLen[lo]
	if segLen == 0 {
		return t.waypoints[lo]
	}
	frac := (s - t.cumLen[lo]) / segLen
	a, b := t.waypoints[lo], t.waypoints[hi]
	return Point{a.X + frac*(b.X-a.X), a.Y + frac*(b.Y-a.Y)}
}

// SampleByDistance returns positions every step metres along the trajectory,
// starting at arc length 0 and including the final endpoint.
func (t *Trajectory) SampleByDistance(step float64) []Point {
	if step <= 0 {
		panic("geo: non-positive sampling step")
	}
	total := t.Length()
	n := int(total/step) + 1
	out := make([]Point, 0, n+1)
	for s := 0.0; s < total; s += step {
		out = append(out, t.At(s))
	}
	out = append(out, t.At(total))
	return out
}

// MphToMps converts miles per hour to metres per second.
func MphToMps(mph float64) float64 { return mph * 0.44704 }
