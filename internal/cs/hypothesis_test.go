package cs

import (
	"math"
	"testing"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
)

// twoAPWindow builds a window of measurements from two well-separated APs
// collected along an L-shaped drive (bends defeat mirror ambiguity).
func twoAPWindow(t *testing.T, r *rng.RNG) (*grid.Grid, radio.Channel, []radio.Measurement, []geo.Point) {
	t.Helper()
	ch := radio.UCIChannel()
	aps := []geo.Point{{X: 30, Y: 30}, {X: 90, Y: 80}}
	g := testGrid(t, 120, 110, 10)
	tr, err := geo.NewTrajectory([]geo.Point{
		{X: 10, Y: 10}, {X: 50, Y: 40}, {X: 70, Y: 30}, {X: 100, Y: 60}, {X: 80, Y: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ms []radio.Measurement
	for i, p := range tr.SampleByDistance(tr.Length() / 29) {
		near := aps[0]
		if p.Dist(aps[1]) < p.Dist(aps[0]) {
			near = aps[1]
		}
		ms = append(ms, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(near), r), Time: float64(i)})
	}
	return g, ch, ms, aps
}

func TestEvaluateKRecoversBothAPs(t *testing.T) {
	g, ch, ms, aps := twoAPWindow(t, rng.New(1))
	h, err := EvaluateK(g, ch, ms, 2, HypothesisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.APs) < 2 {
		t.Fatalf("recovered %d APs, want >= 2", len(h.APs))
	}
	for _, ap := range aps {
		best := math.Inf(1)
		for _, e := range h.APs {
			if d := e.Dist(ap); d < best {
				best = d
			}
		}
		if best > 20 {
			t.Errorf("AP %v has no estimate within 20 m (best %.1f)", ap, best)
		}
	}
}

func TestEvaluateKErrors(t *testing.T) {
	g, ch, ms, _ := twoAPWindow(t, rng.New(2))
	if _, err := EvaluateK(g, ch, nil, 1, HypothesisOptions{}); err != ErrNoMeasurements {
		t.Fatalf("err = %v, want ErrNoMeasurements", err)
	}
	if _, err := EvaluateK(g, ch, ms, 0, HypothesisOptions{}); err != ErrTooManyGroups {
		t.Fatalf("err = %v, want ErrTooManyGroups", err)
	}
	if _, err := EvaluateK(g, ch, ms, len(ms)+1, HypothesisOptions{}); err != ErrTooManyGroups {
		t.Fatalf("err = %v, want ErrTooManyGroups", err)
	}
}

func TestSelectModelPrefersTrueK(t *testing.T) {
	g, ch, ms, aps := twoAPWindow(t, rng.New(3))
	h, err := SelectModel(g, ch, ms, SelectOptions{MaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.APs) < len(aps) || len(h.APs) > len(aps)+1 {
		t.Fatalf("selected %d APs, want %d (±1)", len(h.APs), len(aps))
	}
}

func TestSelectModelEmptyWindow(t *testing.T) {
	g := testGrid(t, 20, 20, 10)
	if _, err := SelectModel(g, radio.UCIChannel(), nil, SelectOptions{}); err != ErrNoMeasurements {
		t.Fatalf("err = %v, want ErrNoMeasurements", err)
	}
}

func TestBICSelectionPenalizesOverfit(t *testing.T) {
	// With a single AP, the K=1 hypothesis should beat K=3 on BIC.
	ch := radio.UCIChannel()
	g := testGrid(t, 80, 80, 10)
	ap := geo.Point{X: 40, Y: 40}
	r := rng.New(4)
	var ms []radio.Measurement
	tr, err := geo.NewTrajectory([]geo.Point{{X: 10, Y: 20}, {X: 60, Y: 25}, {X: 70, Y: 70}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.SampleByDistance(tr.Length() / 19) {
		ms = append(ms, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r), Time: float64(i)})
	}
	h1, err := EvaluateK(g, ch, ms, 1, HypothesisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h3, err := EvaluateK(g, ch, ms, 3, HypothesisOptions{})
	if err != nil {
		t.Skip("K=3 hypothesis collapsed; nothing to compare")
	}
	if h1.BIC <= h3.BIC && len(h3.APs) > len(h1.APs) {
		t.Fatalf("BIC(K=1) = %.1f should beat BIC(K=3) = %.1f for a single AP", h1.BIC, h3.BIC)
	}
}

func TestExhaustiveMatchesGreedyOnEasyWindow(t *testing.T) {
	// A tiny window where both search strategies should find near-identical
	// constellations for the correct K.
	ch := radio.UCIChannel()
	ch.ShadowSigma = 0.1
	g := testGrid(t, 100, 60, 10)
	aps := []geo.Point{{X: 20, Y: 30}, {X: 80, Y: 30}}
	r := rng.New(5)
	var ms []radio.Measurement
	for i := 0; i < 8; i++ {
		p := geo.Point{X: 5 + float64(i)*13, Y: 20 + 3*float64(i%3)}
		near := aps[0]
		if p.Dist(aps[1]) < p.Dist(aps[0]) {
			near = aps[1]
		}
		ms = append(ms, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(near), r), Time: float64(i)})
	}
	greedy, err := EvaluateK(g, ch, ms, 2, HypothesisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := evaluateKExhaustive(g, ch, ms, 2, HypothesisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The exhaustive optimum can only be at least as likely.
	if exact.BIC < greedy.BIC-10 {
		t.Fatalf("exhaustive BIC %.1f much worse than greedy %.1f", exact.BIC, greedy.BIC)
	}
}

func TestRSSPeaks(t *testing.T) {
	// Synthetic double-bump series; peaks must land near the bump centres.
	var ms []radio.Measurement
	for i := 0; i < 40; i++ {
		x := float64(i)
		rss := -80 + 30*math.Exp(-(x-10)*(x-10)/20) + 25*math.Exp(-(x-30)*(x-30)/20)
		ms = append(ms, radio.Measurement{Pos: geo.Point{X: x, Y: 0}, RSS: rss, Time: x})
	}
	peaks := rssPeaks(ms)
	if len(peaks) < 2 {
		t.Fatalf("found %d peaks, want >= 2", len(peaks))
	}
	// Strongest peak near 10, second near 30.
	if math.Abs(float64(peaks[0])-10) > 3 {
		t.Errorf("strongest peak at %d, want ~10", peaks[0])
	}
	found30 := false
	for _, p := range peaks {
		if math.Abs(float64(p)-30) <= 3 {
			found30 = true
		}
	}
	if !found30 {
		t.Errorf("no peak near 30: %v", peaks)
	}
}

func TestRSSPeaksEmpty(t *testing.T) {
	if got := rssPeaks(nil); got != nil {
		t.Fatalf("rssPeaks(nil) = %v", got)
	}
}

func TestSeedAssignmentCoversAllGroups(t *testing.T) {
	r := rng.New(6)
	_, _, ms, _ := twoAPWindow(t, r)
	for k := 1; k <= 4; k++ {
		assign := seedAssignment(ms, k, nil)
		if len(assign) != len(ms) {
			t.Fatalf("assignment length %d != %d", len(assign), len(ms))
		}
		for _, a := range assign {
			if a < 0 || a >= k {
				t.Fatalf("assignment %d out of range [0,%d)", a, k)
			}
		}
	}
}

func TestRefineLocalImprovesLikelihood(t *testing.T) {
	ch := radio.UCIChannel()
	gmm := radio.GMMParams{Channel: ch}
	ap := geo.Point{X: 50, Y: 50}
	r := rng.New(7)
	var group []radio.Measurement
	for i := 0; i < 20; i++ {
		p := geo.Point{X: r.Uniform(20, 80), Y: r.Uniform(20, 80)}
		group = append(group, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r)})
	}
	start := geo.Point{X: 60, Y: 42} // a lattice away from the truth
	refined, ll := refineLocal(start, group, 10, gmm)
	if ll < groupLogLik(start, group, gmm) {
		t.Fatal("refinement decreased likelihood")
	}
	if refined.Dist(ap) > start.Dist(ap) {
		t.Fatalf("refinement moved away from the AP: %v (start %v)", refined, start)
	}
}
