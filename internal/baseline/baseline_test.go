package baseline

import (
	"math"
	"testing"

	"crowdwifi/internal/eval"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/mat"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
)

// labelledScenario builds a random scenario and scattered labelled scans.
func labelledScenario(t *testing.T, seed uint64, k, m int) (sim.Scenario, []radio.Measurement) {
	t.Helper()
	r := rng.New(seed)
	sc, err := sim.RandomScenario("test", 200, k, 40, 10, radio.UCIChannel(), 150, r)
	if err != nil {
		t.Fatal(err)
	}
	ms := sc.CollectAt(sc.RandomPoints(m, r), 10, r)
	return sc, ms
}

func TestLGMMSingleAP(t *testing.T) {
	ch := radio.UCIChannel()
	r := rng.New(1)
	g, err := grid.FromRect(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100}), 10)
	if err != nil {
		t.Fatal(err)
	}
	ap := geo.Point{X: 50, Y: 60}
	var ms []radio.Measurement
	for i := 0; i < 25; i++ {
		p := geo.Point{X: r.Uniform(0, 100), Y: r.Uniform(0, 100)}
		ms = append(ms, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r)})
	}
	got, err := LGMM(g, ch, ms, LGMMOptions{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no components")
	}
	best := math.Inf(1)
	for _, p := range got {
		if d := p.Dist(ap); d < best {
			best = d
		}
	}
	if best > 15 {
		t.Fatalf("LGMM best estimate %.1f m from AP", best)
	}
}

func TestLGMMNoMeasurements(t *testing.T) {
	g, _ := grid.FromRect(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 10}), 5)
	if _, err := LGMM(g, radio.UCIChannel(), nil, LGMMOptions{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestMDSRecoversGeometry(t *testing.T) {
	sc, ms := labelledScenario(t, 2, 4, 120)
	got, err := MDS(sc.Channel, ms, MDSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("MDS produced nothing")
	}
	// Sanity bound: normalized localization error should be finite and the
	// mean matched distance should be well under the map diagonal.
	if d := eval.MeanMatchedDistance(sc.APs, got); d > 120 {
		t.Fatalf("MDS mean matched distance %.1f m", d)
	}
}

func TestMDSMinScansGate(t *testing.T) {
	ch := radio.UCIChannel()
	ms := []radio.Measurement{
		{Pos: geo.Point{X: 0, Y: 0}, RSS: -50, Source: 0},
		{Pos: geo.Point{X: 5, Y: 0}, RSS: -52, Source: 0},
	}
	// Source 0 has only 2 scans; MinScans default 3 rejects it.
	if _, err := MDS(ch, ms, MDSOptions{}); err == nil {
		t.Fatal("expected no-AP error")
	}
	got, err := MDS(ch, ms, MDSOptions{MinScans: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("APs = %d, want 1", len(got))
	}
}

func TestMDSIgnoresUnlabelled(t *testing.T) {
	ch := radio.UCIChannel()
	ms := []radio.Measurement{
		{Pos: geo.Point{X: 0, Y: 0}, RSS: -50, Source: -1},
		{Pos: geo.Point{X: 5, Y: 0}, RSS: -52, Source: -1},
		{Pos: geo.Point{X: 9, Y: 0}, RSS: -52, Source: -1},
	}
	if _, err := MDS(ch, ms, MDSOptions{MinScans: 1}); err == nil {
		t.Fatal("unlabelled scans must not be used")
	}
}

func TestSkyhookNearStrongestScans(t *testing.T) {
	sc, ms := labelledScenario(t, 3, 5, 150)
	got, err := Skyhook(ms, SkyhookOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no estimates")
	}
	// Each estimate must be inside the map and closer to some AP than the
	// map diagonal (weak sanity; accuracy comparisons happen in benches).
	for _, p := range got {
		if !sc.Area.Expand(20).Contains(p) {
			t.Fatalf("estimate %v outside the area", p)
		}
	}
}

func TestSkyhookCountingDropsRarelyHeardAPs(t *testing.T) {
	ch := radio.UCIChannel()
	ms := []radio.Measurement{
		{Pos: geo.Point{X: 0, Y: 0}, RSS: -50, Source: 0},
		{Pos: geo.Point{X: 5, Y: 0}, RSS: -55, Source: 0},
		{Pos: geo.Point{X: 50, Y: 50}, RSS: -60, Source: 1}, // heard once
	}
	_ = ch
	got, err := Skyhook(ms, SkyhookOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("APs = %d, want 1 (AP 1 below MinScans)", len(got))
	}
}

func TestSkyhookCrowdAverages(t *testing.T) {
	mk := func(offset float64) []radio.Measurement {
		return []radio.Measurement{
			{Pos: geo.Point{X: 10 + offset, Y: 0}, RSS: -50, Source: 7},
			{Pos: geo.Point{X: 12 + offset, Y: 0}, RSS: -55, Source: 7},
		}
	}
	got, err := SkyhookCrowd([][]radio.Measurement{mk(0), mk(4)}, SkyhookOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("APs = %d, want 1", len(got))
	}
	// Vehicle 1 centroid x = (10·2+12·1)/3 = 10.67; vehicle 2 adds 4 → 14.67;
	// naive average ≈ 12.67.
	if math.Abs(got[0].X-12.666666) > 0.01 {
		t.Fatalf("averaged x = %v", got[0].X)
	}
}

func TestSkyhookCrowdEmpty(t *testing.T) {
	if _, err := SkyhookCrowd(nil, SkyhookOptions{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestProcrustesAlignsRotation(t *testing.T) {
	src := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 2}}
	// dst = src rotated 90° and translated.
	dst := make([]geo.Point, len(src))
	for i, p := range src {
		dst[i] = geo.Point{X: -p.Y + 5, Y: p.X + 3}
	}
	got := procrustes(src, dst)
	for i := range got {
		if got[i].Dist(dst[i]) > 1e-9 {
			t.Fatalf("procrustes[%d] = %v, want %v", i, got[i], dst[i])
		}
	}
}

func TestDoubleCenterRowsSumZero(t *testing.T) {
	// Double centering must produce a matrix with zero row and column sums.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 0, Y: 4}, {X: 5, Y: 5}}
	n := len(pts)
	d2 := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := pts[i].Dist(pts[j])
			d2.Set(i, j, d*d)
		}
	}
	b := doubleCenter(d2)
	for i := 0; i < n; i++ {
		var rowSum, colSum float64
		for j := 0; j < n; j++ {
			rowSum += b.At(i, j)
			colSum += b.At(j, i)
		}
		if math.Abs(rowSum) > 1e-9 || math.Abs(colSum) > 1e-9 {
			t.Fatalf("row/col %d sums = %v/%v", i, rowSum, colSum)
		}
	}
}

func TestClassicalMDSExactOnTrueDistances(t *testing.T) {
	// With exact pairwise distances, classical MDS + Procrustes must
	// reproduce the configuration. This validates the linear algebra chain
	// end to end.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 0, Y: 30}, {X: 50, Y: 50}, {X: 20, Y: 10}}
	n := len(pts)
	d2 := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := pts[i].Dist(pts[j])
			d2.Set(i, j, d*d)
		}
	}
	b := doubleCenter(d2)
	eig, err := mat.FactorizeSymEigen(b)
	if err != nil {
		t.Fatal(err)
	}
	embed := make([]geo.Point, n)
	for dim := 0; dim < 2; dim++ {
		scale := math.Sqrt(math.Max(eig.Values[dim], 0))
		for i := 0; i < n; i++ {
			v := eig.Vectors.At(i, dim) * scale
			if dim == 0 {
				embed[i].X = v
			} else {
				embed[i].Y = v
			}
		}
	}
	aligned := procrustes(embed, pts)
	for i := range aligned {
		if aligned[i].Dist(pts[i]) > 1e-6 {
			t.Fatalf("MDS point %d = %v, want %v", i, aligned[i], pts[i])
		}
	}
}
