package crowd

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/par"
	"crowdwifi/internal/rng"
)

// The loops WeightedFusion and infer replaced, verbatim but for their names:
// an O(points × clusters) scan for the next seed and every member, and
// messages behind per-task and per-worker lists of 24-byte edges. The tests
// below hold the rewritten loops to them bit for bit.

func weightedFusionRef(reports []VehicleReport, reliability []float64, opts FusionOptions) ([]geo.Point, error) {
	if opts.MergeRadius <= 0 {
		return nil, errors.New("crowd: fusion requires a positive merge radius")
	}
	type obs struct {
		p geo.Point
		w float64
		v int
	}
	var all []obs
	for _, rep := range reports {
		w := 1.0
		if rep.Vehicle >= 0 && rep.Vehicle < len(reliability) {
			w = reliability[rep.Vehicle]
		}
		if w < 0 {
			w = 0
		}
		for _, p := range rep.APs {
			all = append(all, obs{p: p, w: w, v: rep.Vehicle})
		}
	}
	// Greedy clustering: repeatedly take the highest-weight unused report as
	// a cluster seed and absorb everything within the merge radius.
	used := make([]bool, len(all))
	var out []geo.Point
	for {
		seed := -1
		for i, o := range all {
			if used[i] {
				continue
			}
			if seed < 0 || o.w > all[seed].w {
				seed = i
			}
		}
		if seed < 0 {
			break
		}
		var members []obs
		for i, o := range all {
			if used[i] {
				continue
			}
			if o.p.Dist(all[seed].p) <= opts.MergeRadius {
				used[i] = true
				members = append(members, o)
			}
		}
		var sx, sy, sw float64
		vehicles := map[int]bool{}
		for _, m := range members {
			sx += m.w * m.p.X
			sy += m.w * m.p.Y
			sw += m.w
			if m.w > 0 {
				vehicles[m.v] = true
			}
		}
		if sw <= 0 || sw < opts.MinWeight || len(vehicles) < opts.MinReports {
			continue
		}
		out = append(out, geo.Point{X: sx / sw, Y: sy / sw})
	}
	return out, nil
}

func inferRef(l *Labels, opts InferenceOptions) *InferenceResult {
	a := l.Assignment
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-5
	}

	// Edge-indexed messages. Edge e corresponds to (task i, slot c).
	// workerEdge[j] lists the edge ids incident to worker j.
	type edge struct {
		task   int
		worker int
		label  float64
	}
	var edges []edge
	edgeIdx := make([][]int, a.NumTasks) // per task: edge ids
	workerEdges := make([][]int, a.NumWorkers)
	for i, workers := range a.TaskWorkers {
		edgeIdx[i] = make([]int, len(workers))
		for c, j := range workers {
			id := len(edges)
			edges = append(edges, edge{task: i, worker: j, label: float64(l.Values[i][c])})
			edgeIdx[i][c] = id
			workerEdges[j] = append(workerEdges[j], id)
		}
	}

	y := make([]float64, len(edges)) // y_{j→i} on each edge
	x := make([]float64, len(edges)) // x_{i→j} on each edge
	if opts.RandomInit {
		r := rng.New(opts.Seed)
		for e := range y {
			y[e] = r.Normal(1, 1)
		}
	} else {
		for e := range y {
			y[e] = 1
		}
	}

	workers := par.DefaultWorkers()
	if len(edges) < parMinEdges {
		workers = 1
	}
	dy := make([]float64, len(edges))
	iter := 0
	converged := false
	for ; iter < maxIter; iter++ {
		// Task → worker messages: x_e = Σ over sibling edges of L·y.
		par.ForBlocks(len(edgeIdx), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var sum float64
				for _, e := range edgeIdx[i] {
					sum += edges[e].label * y[e]
				}
				for _, e := range edgeIdx[i] {
					x[e] = sum - edges[e].label*y[e]
				}
			}
		})
		// Worker → task messages.
		par.ForBlocks(len(workerEdges), workers, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				var sum float64
				for _, e := range workerEdges[j] {
					sum += edges[e].label * x[e]
				}
				for _, e := range workerEdges[j] {
					ny := sum - edges[e].label*x[e]
					dy[e] = ny - y[e]
					y[e] = ny
				}
			}
		})
		var delta, norm float64
		for j := range workerEdges {
			for _, e := range workerEdges[j] {
				delta += dy[e] * dy[e]
				norm += y[e] * y[e]
			}
		}
		if norm > 0 && math.Sqrt(delta/norm) < tol {
			iter++
			converged = true
			break
		}
	}

	scores := make([]float64, a.NumTasks)
	labels := make([]int, a.NumTasks)
	for i := range edgeIdx {
		var s float64
		for _, e := range edgeIdx[i] {
			s += edges[e].label * y[e]
		}
		scores[i] = s
		if s >= 0 {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}
	wrel := make([]float64, a.NumWorkers)
	for j, es := range workerEdges {
		var s float64
		for _, e := range es {
			s += y[e]
		}
		if len(es) > 0 {
			s /= float64(len(es))
		}
		wrel[j] = s
	}
	return &InferenceResult{
		Labels:            labels,
		TaskScores:        scores,
		WorkerReliability: wrel,
		Iterations:        iter,
		Converged:         converged,
	}
}

func samePoints(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randomFusionCase draws reports whose points sit on a coarse lattice — so
// that distances of exactly the radius, points on the edges of one-radius
// buckets and duplicate points are common — a hair off it, or anywhere near
// it, with
// reliabilities from a tied set, zero, negative zero, negatives and a spread;
// some reports are empty, some name vehicles the reliability slice does not
// cover, and some share a vehicle.
func randomFusionCase(r *rng.RNG) ([]VehicleReport, []float64, FusionOptions) {
	radius := []float64{1, 2.5, 10, 0.1, 7}[r.Intn(5)]
	step := radius / float64(1+r.Intn(4))
	n := r.Intn(25)
	reports := make([]VehicleReport, n)
	for i := range reports {
		reports[i].Vehicle = r.Intn(n+3) - 1
		reports[i].APs = make([]geo.Point, r.Intn(7))
		if r.Intn(8) == 0 {
			reports[i].APs = nil
		}
		for k := range reports[i].APs {
			if r.Intn(3) == 0 {
				reports[i].APs[k] = geo.Point{X: r.Uniform(-3, 12) * radius, Y: r.Uniform(-3, 12) * radius}
			} else {
				reports[i].APs[k] = geo.Point{X: step * float64(r.Intn(12)-2), Y: step * float64(r.Intn(12)-2)}
				if r.Intn(3) == 0 { // a hair off the lattice: distances a hair over or under the radius
					reports[i].APs[k].Y += radius * math.Ldexp(float64(r.Intn(3)-1), -22-r.Intn(8))
				}
			}
		}
	}
	rel := make([]float64, n+1)
	for i := range rel {
		switch r.Intn(7) {
		case 0, 1:
			rel[i] = []float64{1, 0.5, 0.05}[r.Intn(3)]
		case 2:
			rel[i] = 0
		case 3:
			rel[i] = math.Copysign(0, -1)
		case 4:
			rel[i] = -r.Float64()
		default:
			rel[i] = 2 * r.Float64()
		}
	}
	opts := FusionOptions{MergeRadius: radius}
	switch r.Intn(4) {
	case 0:
		opts.MinWeight = []float64{0.5, 1, 2}[r.Intn(3)]
	case 1:
		opts.MinReports = 1 + r.Intn(3)
	case 2:
		opts.MinWeight, opts.MinReports = 0.5, 2
	}
	return reports, rel, opts
}

// TestWeightedFusionMatchesReference: the bucketed, report-seeded clustering
// is the greedy scan it replaced, bit for bit, over ties, zero and negative
// weights, points at exactly the radius and on bucket edges, duplicates,
// MinReports and empty reports.
func TestWeightedFusionMatchesReference(t *testing.T) {
	r := rng.New(11)
	for c := 0; c < 20000; c++ {
		reports, rel, opts := randomFusionCase(r)
		want, werr := weightedFusionRef(reports, rel, opts)
		got, err := WeightedFusion(reports, rel, opts)
		if (err != nil) != (werr != nil) || !samePoints(got, want) {
			t.Fatalf("case %d (%+v): got %v (err %v), the reference %v (err %v)\nreports %+v\nreliability %v",
				c, opts, got, err, want, werr, reports, rel)
		}
	}
}

// TestWeightedFusionSpreadMatchesReference covers what the lattice cases
// cannot: coordinates far from the origin and spans of many buckets, where a
// bucket index comes out of rounding, and radii whose square leaves the
// normal float64 range.
func TestWeightedFusionSpreadMatchesReference(t *testing.T) {
	r := rng.New(12)
	for c := 0; c < 2000; c++ {
		exp := r.Intn(20) - 10
		if c%8 == 0 {
			exp = []int{-600, -510, 495, 600}[r.Intn(4)]
		}
		radius := math.Ldexp(1+r.Float64(), exp)
		origin := math.Ldexp(r.Uniform(-1, 1), exp+r.Intn(40))
		reports := make([]VehicleReport, 1+r.Intn(40))
		for i := range reports {
			reports[i] = VehicleReport{Vehicle: i, APs: make([]geo.Point, 1+r.Intn(6))}
			for k := range reports[i].APs {
				x := origin + radius*float64(r.Intn(60))*[]float64{1, 0.5, 1.0 / 3}[r.Intn(3)]
				if r.Intn(2) == 0 {
					x = math.Nextafter(x, math.Inf(2*r.Intn(2)-1))
				}
				reports[i].APs[k] = geo.Point{X: x, Y: origin + radius*float64(r.Intn(3))}
			}
		}
		rel := make([]float64, len(reports))
		for i := range rel {
			rel[i] = float64(r.Intn(3))
		}
		opts := FusionOptions{MergeRadius: radius}
		want, _ := weightedFusionRef(reports, rel, opts)
		got, err := WeightedFusion(reports, rel, opts)
		if err != nil || !samePoints(got, want) {
			t.Fatalf("case %d (radius %v, origin %v): got %v (err %v), the reference %v", c, radius, origin, got, err, want)
		}
	}
}

// TestWeightedFusionNonFiniteWeightIsZero: a reliability that is NaN or
// infinite weighs nothing, as a negative one does, instead of seeding clusters
// out of turn and fusing them to NaN.
func TestWeightedFusionNonFiniteWeightIsZero(t *testing.T) {
	r := rng.New(13)
	for c := 0; c < 2000; c++ {
		reports, rel, opts := randomFusionCase(r)
		bad := append([]float64(nil), rel...)
		for i := range bad {
			if r.Intn(3) == 0 {
				rel[i] = 0
				bad[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
			}
		}
		want, _ := weightedFusionRef(reports, rel, opts)
		got, err := WeightedFusion(reports, bad, opts)
		if err != nil || !samePoints(got, want) {
			t.Fatalf("case %d: got %v (err %v), want %v", c, got, err, want)
		}
		for _, p := range got {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) {
				t.Fatalf("case %d: fused point %v", c, p)
			}
		}
	}
}

// TestInferMatchesReference: the contiguous message layout runs the
// reference's arithmetic in the reference's order — scores, reliabilities,
// iteration count and convergence bit for bit — on regular and irregular
// instances, from the deterministic start and from RandomInit's draws, at
// one worker and at four.
func TestInferMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rng.New(21)
	overflowed := 0
	for c := 0; c < 60; c++ {
		var labels *Labels
		if c%2 == 0 {
			labels = denseLabels(r, 50+r.Intn(400), 20+r.Intn(200), 1+r.Intn(12))
		} else {
			a, err := RegularAssignment(60+6*r.Intn(20), 3, 6, r)
			if err != nil {
				t.Fatal(err)
			}
			labels, err = GenerateLabels(a, RandomLabelsTruth(a.NumTasks, r), SpammerHammer(a.NumWorkers, 0.5, r), r)
			if err != nil {
				t.Fatal(err)
			}
		}
		opts := InferenceOptions{MaxIter: []int{0, 1, 7, 300}[r.Intn(4)], Tol: []float64{0, 1e-3, 1e-9}[r.Intn(3)]}
		if r.Intn(2) == 0 {
			opts.RandomInit, opts.Seed = true, r.Uint64()
		}
		runtime.GOMAXPROCS(1 + 3*(c%2))
		want, got := inferRef(labels, opts), Infer(labels, opts)
		if !finite(want.TaskScores) || !finite(want.WorkerReliability) {
			// Three hundred sweeps outgrow float64: the reference ends in NaN,
			// the rescaled messages must not.
			if !finite(got.TaskScores) || !finite(got.WorkerReliability) {
				t.Fatalf("case %d (%+v): the rescaled run overflowed too", c, opts)
			}
			overflowed++
			continue
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged ||
			!sameFloats(got.TaskScores, want.TaskScores) || !sameFloats(got.WorkerReliability, want.WorkerReliability) {
			t.Fatalf("case %d (%+v): (%d, %v) against the reference's (%d, %v), or the messages differ",
				c, opts, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("case %d: task %d label %d, the reference %d", c, i, got.Labels[i], want.Labels[i])
			}
		}
	}
	if overflowed == 0 || overflowed > 10 {
		t.Fatalf("%d of 60 cases overflowed the reference: the draw no longer covers both sides", overflowed)
	}
}

func finite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TestInferSurvivesOverflow: with a hundred answers per worker the messages
// grow by ≈ 2^13 a sweep and leave float64 range before a hundred sweeps; the
// reference ends in NaN. Rescaled by powers of two they stay finite, and the
// estimate is the one the reference had reached before it overflowed.
func TestInferSurvivesOverflow(t *testing.T) {
	labels := denseLabels(rng.New(31), 500, 1000, 100)
	res := Infer(labels, InferenceOptions{})
	if res.Iterations != 100 {
		t.Fatalf("%d iterations, want 100", res.Iterations)
	}
	for _, v := range append(append([]float64(nil), res.TaskScores...), NormalizeReliability(res.WorkerReliability)...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("a score or reliability is %v", v)
		}
	}
	if ref := inferRef(labels, InferenceOptions{}); !math.IsNaN(ref.WorkerReliability[0]) {
		t.Fatalf("the reference did not overflow (reliability %v): the instance no longer tests anything", ref.WorkerReliability[0])
	}
	early := inferRef(labels, InferenceOptions{MaxIter: 40})
	for i := range early.Labels {
		if res.Labels[i] != early.Labels[i] {
			t.Fatalf("task %d: label %d, %d before the overflow", i, res.Labels[i], early.Labels[i])
		}
	}
}
