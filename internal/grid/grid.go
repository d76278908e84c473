// Package grid implements CrowdWiFi's grid formation (Section 4.3.1) and
// centroid processing (Section 4.3.4). A Grid discretizes the driving area
// into lattice points; the online CS program recovers AP indicator vectors
// over those points, and centroid processing converts dominant coefficients
// back into continuous coordinates.
package grid

import (
	"errors"
	"fmt"
	"math"

	"crowdwifi/internal/geo"
)

// Grid is a rectangular lattice of candidate AP positions.
type Grid struct {
	// Area is the covered rectangle.
	Area geo.Rect
	// Lattice is the edge length of each cell in metres.
	Lattice float64
	// NX and NY are the number of grid points along x and y.
	NX, NY int
}

// ErrEmptyGrid indicates that grid formation had no input points.
var ErrEmptyGrid = errors.New("grid: no reference points to form a grid over")

// FromMeasurements forms the grid of Section 4.3.1: the bounding box of the
// reference-point locations expanded by the collector's communication radius
// rm on every side, discretized with the given lattice length.
func FromMeasurements(rps []geo.Point, radius, lattice float64) (*Grid, error) {
	if len(rps) == 0 {
		return nil, ErrEmptyGrid
	}
	if lattice <= 0 {
		return nil, fmt.Errorf("grid: non-positive lattice length %v", lattice)
	}
	area := geo.BoundingBox(rps).Expand(radius)
	return FromRect(area, lattice)
}

// FromRect discretizes an explicit rectangle with the given lattice length.
// Grid points are placed at cell corners including both boundaries.
func FromRect(area geo.Rect, lattice float64) (*Grid, error) {
	if lattice <= 0 {
		return nil, fmt.Errorf("grid: non-positive lattice length %v", lattice)
	}
	if area.Width() <= 0 || area.Height() <= 0 {
		return nil, fmt.Errorf("grid: degenerate area %+v", area)
	}
	nx := int(math.Ceil(area.Width()/lattice)) + 1
	ny := int(math.Ceil(area.Height()/lattice)) + 1
	return &Grid{Area: area, Lattice: lattice, NX: nx, NY: ny}, nil
}

// N returns the number of grid points.
func (g *Grid) N() int { return g.NX * g.NY }

// Point returns the coordinates of grid point index n ∈ [0, N).
func (g *Grid) Point(n int) geo.Point {
	if n < 0 || n >= g.N() {
		panic(fmt.Sprintf("grid: index %d out of range [0,%d)", n, g.N()))
	}
	ix := n % g.NX
	iy := n / g.NX
	return geo.Point{
		X: g.Area.Min.X + float64(ix)*g.Lattice,
		Y: g.Area.Min.Y + float64(iy)*g.Lattice,
	}
}

// Nearest returns the index of the grid point closest to p.
func (g *Grid) Nearest(p geo.Point) int {
	ix := int(math.Round((p.X - g.Area.Min.X) / g.Lattice))
	iy := int(math.Round((p.Y - g.Area.Min.Y) / g.Lattice))
	if ix < 0 {
		ix = 0
	}
	if ix >= g.NX {
		ix = g.NX - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= g.NY {
		iy = g.NY - 1
	}
	return iy*g.NX + ix
}

// CentroidOptions tunes centroid processing.
type CentroidOptions struct {
	// Threshold ζ selects the dominant coefficients: grid points with
	// θ(n) > ζ become candidates (Section 4.3.4). Values ≤ 0 select
	// dominantShare of the max coefficient.
	Threshold float64
}

// dominantShare is the fraction of the largest coefficient above which a grid
// point counts as dominant when no absolute threshold is given.
const dominantShare = 0.3

// threshold returns the dominance cutoff for θ, or false when θ has no
// positive coefficient to be relative to.
func (o CentroidOptions) threshold(theta []float64) (float64, bool) {
	if o.Threshold > 0 {
		return o.Threshold, true
	}
	var mx float64
	for _, v := range theta {
		if v > mx {
			mx = v
		}
	}
	return dominantShare * mx, mx > 0
}

// Centroid converts a recovered coefficient vector θ over the grid into a
// continuous location estimate: the weighted mean of the candidate grid
// points with weights θ(n), per Eq. 3. The boolean result is false when no
// coefficient exceeds the threshold.
func (g *Grid) Centroid(theta []float64, opts CentroidOptions) (geo.Point, bool) {
	if len(theta) != g.N() {
		panic(fmt.Sprintf("grid: theta length %d != N %d", len(theta), g.N()))
	}
	thr, ok := opts.threshold(theta)
	if !ok {
		return geo.Point{}, false
	}
	var sx, sy, sw float64
	for n, v := range theta {
		if v <= thr {
			continue
		}
		p := g.Point(n)
		sx += v * p.X
		sy += v * p.Y
		sw += v
	}
	if sw == 0 {
		return geo.Point{}, false
	}
	return geo.Point{X: sx / sw, Y: sy / sw}, true
}

// SplitSupport partitions the dominant coefficients of θ into k spatial
// clusters and returns the weighted centroid of each cluster, ordered by
// descending total weight. It implements the multi-AP variant of centroid
// processing: one recovered θ can carry several APs, one per support
// cluster. Clustering is a deterministic k-means over grid coordinates
// seeded by the k largest coefficients (farthest-first refinement).
func (g *Grid) SplitSupport(theta []float64, k int, opts CentroidOptions) []geo.Point {
	if k <= 0 {
		return nil
	}
	thr, ok := opts.threshold(theta)
	if !ok {
		return nil
	}
	type cand struct {
		p geo.Point
		w float64
	}
	var cands []cand
	for n, v := range theta {
		if v > thr {
			cands = append(cands, cand{g.Point(n), v})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	if k > len(cands) {
		k = len(cands)
	}
	// Farthest-first seeding from the heaviest candidate.
	centers := make([]geo.Point, 0, k)
	best := 0
	for i, c := range cands {
		if c.w > cands[best].w {
			best = i
		}
	}
	centers = append(centers, cands[best].p)
	for len(centers) < k {
		farIdx, farDist := -1, -1.0
		for i, c := range cands {
			dMin := math.Inf(1)
			for _, ct := range centers {
				if d := c.p.Dist(ct); d < dMin {
					dMin = d
				}
			}
			if dMin > farDist {
				farDist, farIdx = dMin, i
			}
		}
		centers = append(centers, cands[farIdx].p)
	}
	// Lloyd iterations with weighted means.
	assign := make([]int, len(cands))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, c := range cands {
			bestJ, bestD := 0, math.Inf(1)
			for j, ct := range centers {
				if d := c.p.Dist(ct); d < bestD {
					bestJ, bestD = j, d
				}
			}
			if assign[i] != bestJ {
				assign[i] = bestJ
				changed = true
			}
		}
		for j := range centers {
			var sx, sy, sw float64
			for i, c := range cands {
				if assign[i] != j {
					continue
				}
				sx += c.w * c.p.X
				sy += c.w * c.p.Y
				sw += c.w
			}
			if sw > 0 {
				centers[j] = geo.Point{X: sx / sw, Y: sy / sw}
			}
		}
		if !changed {
			break
		}
	}
	// Order clusters by total weight (descending) and drop empty ones.
	type cluster struct {
		p geo.Point
		w float64
	}
	cl := make([]cluster, len(centers))
	for j, ct := range centers {
		cl[j].p = ct
	}
	for i, c := range cands {
		cl[assign[i]].w += c.w
	}
	out := make([]geo.Point, 0, k)
	for {
		best, bw := -1, 0.0
		for j, c := range cl {
			if c.w > bw {
				best, bw = j, c.w
			}
		}
		if best < 0 {
			break
		}
		out = append(out, cl[best].p)
		cl[best].w = 0
	}
	return out
}
