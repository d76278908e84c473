package cs

import (
	"context"
	"math"
	"testing"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/mat"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
)

func testGrid(t *testing.T, w, h, lattice float64) *grid.Grid {
	t.Helper()
	g, err := grid.FromRect(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: w, Y: h}), lattice)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func measurementsFromAP(ch radio.Channel, ap geo.Point, positions []geo.Point, r *rng.RNG) []radio.Measurement {
	ms := make([]radio.Measurement, len(positions))
	for i, p := range positions {
		ms[i] = radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r), Time: float64(i)}
	}
	return ms
}

func scatter(r *rng.RNG, n int, w, h float64) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{X: r.Uniform(0, w), Y: r.Uniform(0, h)}
	}
	return out
}

func TestBuildSensingMatrixValues(t *testing.T) {
	ch := radio.UCIChannel()
	g := testGrid(t, 20, 20, 10)
	ms := []radio.Measurement{{Pos: geo.Point{X: 5, Y: 5}}}
	a := BuildSensingMatrix(g, ch, ms)
	if r, c := a.Dims(); r != 1 || c != g.N() {
		t.Fatalf("A dims %dx%d, want 1x%d", r, c, g.N())
	}
	for j := 0; j < g.N(); j++ {
		want := ch.MeanRSS(ms[0].Pos.Dist(g.Point(j)))
		if got := a.At(0, j); got != want {
			t.Fatalf("A[0][%d] = %v, want %v", j, got, want)
		}
	}
}

func TestBuildPhiSelectsNearestGridPoint(t *testing.T) {
	g := testGrid(t, 20, 20, 10)
	ms := []radio.Measurement{{Pos: geo.Point{X: 11, Y: 1}}}
	phi := BuildPhi(g, ms)
	hot := 0
	for j := 0; j < g.N(); j++ {
		if phi.At(0, j) == 1 {
			hot++
			if j != g.Nearest(ms[0].Pos) {
				t.Fatalf("Φ selects grid point %d, nearest is %d", j, g.Nearest(ms[0].Pos))
			}
		} else if phi.At(0, j) != 0 {
			t.Fatalf("Φ has non-binary entry %v", phi.At(0, j))
		}
	}
	if hot != 1 {
		t.Fatalf("Φ row has %d ones, want 1", hot)
	}
}

func TestPhiPsiMatchesDirectConstructionOnGridPoints(t *testing.T) {
	// When RPs sit exactly on grid points, ΦΨ must equal the directly built
	// sensing matrix.
	ch := radio.UCIChannel()
	g := testGrid(t, 30, 30, 10)
	ms := []radio.Measurement{
		{Pos: g.Point(3)},
		{Pos: g.Point(7)},
	}
	direct := BuildSensingMatrix(g, ch, ms)
	phiPsi := mat.Mul(BuildPhi(g, ms), BuildPsi(g, ch))
	if !equalApprox(direct, phiPsi, 1e-9) {
		t.Fatal("ΦΨ != direct sensing matrix on grid-point RPs")
	}
}

func TestPsiSymmetric(t *testing.T) {
	ch := radio.UCIChannel()
	g := testGrid(t, 30, 30, 10)
	psi := BuildPsi(g, ch)
	if !equalApprox(psi, psi.T(), 1e-12) {
		t.Fatal("Ψ should be symmetric (distance is symmetric)")
	}
}

func TestOrthogonalizeRowsOrthonormal(t *testing.T) {
	ch := radio.UCIChannel()
	g := testGrid(t, 50, 50, 10)
	r := rng.New(1)
	ms := measurementsFromAP(ch, geo.Point{X: 25, Y: 25}, scatter(r, 8, 50, 50), r)
	a := BuildSensingMatrix(g, ch, ms)
	y := make([]float64, len(ms))
	for i, m := range ms {
		y[i] = m.RSS
	}
	q, yp, err := Orthogonalize(a, y, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := q.Dims()
	if len(yp) != rows {
		t.Fatalf("y' length %d != %d rows of Q", len(yp), rows)
	}
	qqt := mat.AAt(q)
	if !equalApprox(qqt, mat.Identity(rows), 1e-8) {
		t.Fatal("QQᵀ != I: rows not orthonormal")
	}
}

func TestOrthogonalizePreservesSolutions(t *testing.T) {
	// Any θ satisfying Aθ = y must satisfy Qθ = y' (Prop. 1 consistency).
	ch := radio.UCIChannel()
	ch.ShadowSigma = 0
	g := testGrid(t, 40, 40, 10)
	ap := g.Point(7)
	r := rng.New(2)
	ms := measurementsFromAP(ch, ap, scatter(r, 6, 40, 40), r)
	a := BuildSensingMatrix(g, ch, ms)
	theta := make([]float64, g.N())
	theta[7] = 1
	y := mat.MulVec(a, theta)
	q, yp, err := Orthogonalize(a, y, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	qt := mat.MulVec(q, theta)
	for i := range yp {
		if math.Abs(qt[i]-yp[i]) > 1e-6 {
			t.Fatalf("Qθ[%d] = %v, y'[%d] = %v", i, qt[i], i, yp[i])
		}
	}
}

func TestOrthogonalizeErrors(t *testing.T) {
	a := mat.New(3, 5)
	if _, _, err := Orthogonalize(a, []float64{1, 2}, 0); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, _, err := Orthogonalize(a, []float64{1, 2, 3}, 0); err == nil {
		t.Fatal("expected rank-zero error for zero matrix")
	}
}

var orthSink *mat.Mat

// BenchmarkOrthogonalize is Proposition 1 on the shape every group solve
// starts from: a group capped at its 24 strongest readings of a full UCI
// window, against the 187 points of the vehicle workload's grid.
func BenchmarkOrthogonalize(b *testing.B) {
	sc, g, ms := uciDrive(b, 1)
	group := strongest(ms[60:120], maxGroupRows)
	a := BuildSensingMatrix(g, sc.Channel, group)
	y := make([]float64, len(group))
	for i, m := range group {
		y[i] = m.RSS
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, _, err := Orthogonalize(a, y, 0)
		if err != nil {
			b.Fatal(err)
		}
		orthSink = q
	}
}

func TestRecoverThetaFindsAPGridPoint(t *testing.T) {
	ch := radio.UCIChannel()
	ch.ShadowSigma = 0 // noiseless: recovery should be near-exact
	g := testGrid(t, 60, 60, 10)
	apIdx := g.Nearest(geo.Point{X: 30, Y: 40})
	ap := g.Point(apIdx)
	r := rng.New(3)
	ms := measurementsFromAP(ch, ap, scatter(r, 12, 60, 60), r)
	a := BuildSensingMatrix(g, ch, ms)
	y := make([]float64, len(ms))
	for i, m := range ms {
		y[i] = m.RSS
	}
	theta, err := RecoverTheta(context.Background(), a, y, RecoveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for n, v := range theta {
		if v > theta[best] {
			best = n
		}
	}
	if g.Point(best).Dist(ap) > 10+1e-9 {
		t.Fatalf("dominant coefficient at %v, AP at %v", g.Point(best), ap)
	}
}

func TestRecoverThetaErrors(t *testing.T) {
	g := testGrid(t, 20, 20, 10)
	a := BuildSensingMatrix(g, radio.UCIChannel(), []radio.Measurement{{Pos: geo.Point{X: 1, Y: 1}}})
	if _, err := RecoverTheta(context.Background(), a, nil, RecoveryOptions{}); err == nil {
		t.Fatal("expected error for empty y")
	}
	if _, err := RecoverTheta(context.Background(), a, []float64{1, 2}, RecoveryOptions{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestRecoveryMoreMeasurementsNoWorse(t *testing.T) {
	// Regression guard for the rank-truncation fix: localization error must
	// not blow up as measurements are added (noise amplification bug).
	ch := radio.UCIChannel()
	g := testGrid(t, 100, 100, 10)
	errAt := func(m int) float64 {
		var tot float64
		const trials = 8
		for trial := 0; trial < trials; trial++ {
			r := rng.New(uint64(trial*31 + 7))
			ap := geo.Point{X: r.Uniform(10, 90), Y: r.Uniform(10, 90)}
			ms := measurementsFromAP(ch, ap, scatter(r, m, 100, 100), r)
			a := BuildSensingMatrix(g, ch, ms)
			y := make([]float64, len(ms))
			for i, mm := range ms {
				y[i] = mm.RSS
			}
			theta, err := RecoverTheta(context.Background(), a, y, RecoveryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			p, ok := g.Centroid(theta, grid.CentroidOptions{})
			if !ok {
				tot += 100
				continue
			}
			tot += p.Dist(ap)
		}
		return tot / trials
	}
	few, many := errAt(8), errAt(40)
	if many > few+5 {
		t.Fatalf("error grew with measurements: m=8 → %.2f, m=40 → %.2f", few, many)
	}
}

func TestColumnNormalizationCountersRoadBias(t *testing.T) {
	// Collinear RPs: without normalization the estimate collapses onto the
	// drive line; with it, mass sits on the mirror pair. Verify the support's
	// x is right and the dominant support is off-road.
	ch := radio.UCIChannel()
	ch.ShadowSigma = 0
	g := testGrid(t, 200, 100, 10)
	ap := geo.Point{X: 100, Y: 70}
	r := rng.New(5)
	var pos []geo.Point
	for i := 0; i < 15; i++ {
		pos = append(pos, geo.Point{X: 50 + float64(i)*7, Y: 50})
	}
	ms := measurementsFromAP(ch, ap, pos, r)
	a := BuildSensingMatrix(g, ch, ms)
	y := make([]float64, len(ms))
	for i, m := range ms {
		y[i] = m.RSS
	}
	theta, err := RecoverTheta(context.Background(), a, y, RecoveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for n, v := range theta {
		if v > theta[best] {
			best = n
		}
	}
	bp := g.Point(best)
	if math.Abs(bp.X-100) > 10+1e-9 {
		t.Fatalf("dominant support x = %v, want ~100", bp.X)
	}
	// The dominant grid point must be off the drive line (mirror pair at
	// y=30 or y=70, not y=50).
	if bp.Y == 50 {
		t.Fatalf("dominant support on the drive line at %v — road-bias regression", bp)
	}
}

// equalApprox reports whether a and b have the same shape and all entries
// within tol of each other.
func equalApprox(a, b *mat.Mat, tol float64) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < ac; j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}
