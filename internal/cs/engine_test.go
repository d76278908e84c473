package cs

import (
	"fmt"
	"testing"

	"crowdwifi/internal/eval"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
)

func validEngineConfig() EngineConfig {
	return EngineConfig{
		Channel:    radio.UCIChannel(),
		Radius:     50,
		Lattice:    10,
		WindowSize: 20,
		StepSize:   5,
	}
}

func TestNewEngineValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*EngineConfig)
	}{
		{"bad channel", func(c *EngineConfig) { c.Channel = radio.Channel{} }},
		{"zero lattice", func(c *EngineConfig) { c.Lattice = 0 }},
		{"negative radius", func(c *EngineConfig) { c.Radius = -1 }},
		{"step > window", func(c *EngineConfig) { c.StepSize = 30 }},
	}
	for _, c := range cases {
		cfg := validEngineConfig()
		c.mutate(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEngineDefaults(t *testing.T) {
	cfg := EngineConfig{Channel: radio.UCIChannel(), Radius: 50, Lattice: 10}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := e.cfg
	if got.WindowSize != 60 || got.StepSize != 10 {
		t.Fatalf("defaults: window %d step %d, want 60/10 (the paper's setting)", got.WindowSize, got.StepSize)
	}
	if got.MergeRadius != 10 {
		t.Fatalf("default merge radius %v, want lattice (10)", got.MergeRadius)
	}
	if got.MinCredit != 1 {
		t.Fatalf("default min credit %v, want 1 (the paper's spurious filter)", got.MinCredit)
	}
}

func TestEngineRoundCadence(t *testing.T) {
	e, err := NewEngine(validEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	ch := radio.UCIChannel()
	r := rng.New(1)
	ap := geo.Point{X: 25, Y: 25}
	rounds := 0
	for i := 0; i < 20; i++ {
		p := geo.Point{X: float64(i * 3), Y: 20 + float64(i%5)}
		res, err := e.Add(radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r), Time: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			rounds++
			if res.Round != rounds {
				t.Fatalf("round index %d, want %d", res.Round, rounds)
			}
			if (i+1)%5 != 0 {
				t.Fatalf("round fired at sample %d, expected every 5", i+1)
			}
		}
	}
	if rounds != 4 {
		t.Fatalf("rounds = %d, want 4 (20 samples / step 5)", rounds)
	}
	if e.round != 4 {
		t.Fatalf("round = %d", e.round)
	}
}

func TestEngineFindsSingleAP(t *testing.T) {
	cfg := validEngineConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := cfg.Channel
	r := rng.New(2)
	ap := geo.Point{X: 30, Y: 35}
	// L-shaped pass near the AP.
	tr, err := geo.NewTrajectory([]geo.Point{{X: 0, Y: 20}, {X: 40, Y: 25}, {X: 50, Y: 60}})
	if err != nil {
		t.Fatal(err)
	}
	pts := tr.SampleByDistance(tr.Length() / 39)
	for i, p := range pts {
		if _, err := e.Add(radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r), Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ests := e.FinalEstimates()
	if len(ests) == 0 {
		t.Fatal("no estimates")
	}
	if d := ests[0].Pos.Dist(ap); d > 15 {
		t.Fatalf("top estimate %v is %.1f m from AP %v", ests[0].Pos, d, ap)
	}
}

func TestEngineAddBatchEquivalentToAdd(t *testing.T) {
	cfg := validEngineConfig()
	ch := cfg.Channel
	ap := geo.Point{X: 25, Y: 30}
	build := func() []radio.Measurement {
		r := rng.New(3)
		var ms []radio.Measurement
		for i := 0; i < 20; i++ {
			p := geo.Point{X: float64(i * 3), Y: 22 + float64(i%4)}
			ms = append(ms, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r), Time: float64(i)})
		}
		return ms
	}
	e1, _ := NewEngine(cfg)
	e2, _ := NewEngine(cfg)
	ms := build()
	var singles int
	for _, m := range ms {
		res, err := e1.Add(m)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			singles++
		}
	}
	batch, err := e2.AddBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != singles {
		t.Fatalf("batch rounds %d != incremental rounds %d", len(batch), singles)
	}
	a1 := e1.allEstimates()
	a2 := e2.allEstimates()
	if len(a1) != len(a2) {
		t.Fatalf("estimate counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Pos != a2[i].Pos || a1[i].Credit != a2[i].Credit {
			t.Fatalf("estimate %d differs: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

func TestEngineTTLExpiry(t *testing.T) {
	cfg := validEngineConfig()
	cfg.TTL = 5
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := cfg.Channel
	r := rng.New(4)
	ap := geo.Point{X: 20, Y: 20}
	// Feed old measurements, then a much later one; buffer must shrink.
	for i := 0; i < 4; i++ {
		p := geo.Point{X: float64(i * 5), Y: 18}
		if _, err := e.Add(radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r), Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Add(radio.Measurement{Pos: geo.Point{X: 30, Y: 18}, RSS: -60, Time: 100}); err != nil {
		t.Fatal(err)
	}
	if got := len(e.buf); got != 1 {
		t.Fatalf("buffer length %d after TTL expiry, want 1", got)
	}
}

func TestEngineFlushOnEmptyBuffer(t *testing.T) {
	e, err := NewEngine(validEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != ErrNoMeasurements {
		t.Fatalf("err = %v, want ErrNoMeasurements", err)
	}
}

func TestEngineConsolidationMergesRepeats(t *testing.T) {
	e, err := NewEngine(validEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Drive consolidation directly: repeated nearby votes merge with growing
	// credit; a distant vote opens a new estimate.
	e.round = 1
	e.consolidate([]geo.Point{{X: 10, Y: 10}})
	e.round = 2
	e.consolidate([]geo.Point{{X: 12, Y: 10}})
	e.round = 3
	e.consolidate([]geo.Point{{X: 80, Y: 80}})
	all := e.allEstimates()
	if len(all) != 2 {
		t.Fatalf("estimates = %d, want 2", len(all))
	}
	if all[0].Credit != 2 {
		t.Fatalf("merged credit = %v, want 2", all[0].Credit)
	}
	if all[0].Pos.X != 11 {
		t.Fatalf("merged x = %v, want credit-weighted 11", all[0].Pos.X)
	}
	if all[0].FirstSeen != 1 || all[0].LastSeen != 2 {
		t.Fatalf("merged seen range [%d,%d], want [1,2]", all[0].FirstSeen, all[0].LastSeen)
	}
}

func TestEngineCoalesceChains(t *testing.T) {
	e, err := NewEngine(validEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Three estimates in a chain, pairwise within the merge radius after the
	// first merge: coalesce must collapse them all.
	e.round = 1
	e.consolidate([]geo.Point{{X: 0, Y: 0}, {X: 30, Y: 0}})
	e.round = 2
	e.consolidate([]geo.Point{{X: 9, Y: 0}, {X: 21, Y: 0}})
	// (0,0)+(9,0) merge → (4.5,0); (30,0)+(21,0) merge → (25.5,0); those are
	// 21 m apart (> merge radius 10), so 2 clusters remain.
	all := e.allEstimates()
	if len(all) != 2 {
		t.Fatalf("estimates = %d, want 2: %+v", len(all), all)
	}
}

func TestEngineCreditFilter(t *testing.T) {
	e, err := NewEngine(validEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.round = 1
	e.consolidate([]geo.Point{{X: 10, Y: 10}, {X: 80, Y: 80}})
	e.round = 2
	e.consolidate([]geo.Point{{X: 10, Y: 10}})
	ests := e.creditedEstimates() // MinCredit 1: single-credit estimates drop
	if len(ests) != 1 {
		t.Fatalf("filtered estimates = %d, want 1", len(ests))
	}
	if len(e.allEstimates()) != 2 {
		t.Fatal("allEstimates must keep spurious entries")
	}
}

func TestEngineFixedAreaGrid(t *testing.T) {
	cfg := validEngineConfig()
	area := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 60, Y: 60})
	cfg.Area = &area
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.fixedGrid == nil {
		t.Fatal("fixed grid not built")
	}
	if e.fixedGrid.N() != 49 {
		t.Fatalf("fixed grid N = %d, want 49 (7x7)", e.fixedGrid.N())
	}
}

func TestFinalEstimatesPrunesPhantom(t *testing.T) {
	// Construct a history where one consolidated estimate is redundant: all
	// measurements come from one AP, but consolidation holds the truth plus a
	// distant phantom. BIC pruning must drop the phantom.
	cfg := validEngineConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := cfg.Channel
	r := rng.New(8)
	ap := geo.Point{X: 30, Y: 30}
	for i := 0; i < 30; i++ {
		p := geo.Point{X: r.Uniform(0, 60), Y: r.Uniform(0, 60)}
		e.buf = append(e.buf, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r), Time: float64(i)})
	}
	e.estimates = []Estimate{
		{Pos: geo.Point{X: 30, Y: 31}, Credit: 5},
		{Pos: geo.Point{X: 55, Y: 5}, Credit: 3}, // phantom
	}
	finals := e.FinalEstimates()
	if len(finals) != 1 {
		t.Fatalf("final estimates = %d, want 1 (phantom pruned): %+v", len(finals), finals)
	}
	if finals[0].Pos.Dist(ap) > 8 {
		t.Fatalf("kept the wrong estimate: %v", finals[0].Pos)
	}
}

// BenchmarkAblationCredit sweeps the spurious-estimate credit filter
// (Section 4.3.6; the paper sets it to 1) on the UCI drive, reporting the
// counting error of the raw filtered set (no BIC prune) so the filter's own
// effect is visible.
func BenchmarkAblationCredit(b *testing.B) {
	sc := sim.UCI()
	for _, minCredit := range []float64{0.5, 1, 2, 4} {
		b.Run(fmt.Sprintf("credit%g", minCredit), func(b *testing.B) {
			var cntErr float64
			for i := 0; i < b.N; i++ {
				r := rng.New(2014)
				ms, err := sc.Drive(sim.DriveConfig{Trajectory: sim.UCIDrive(), NumSamples: 180, SNR: 30}, r)
				if err != nil {
					b.Fatal(err)
				}
				area := sc.Area
				eng, err := NewEngine(EngineConfig{
					Channel: sc.Channel, Radius: sc.Radius, Lattice: sc.Lattice,
					Area: &area, WindowSize: 60, StepSize: 10,
					MergeRadius: 1.5 * sc.Lattice, MinCredit: minCredit,
					Select: SelectOptions{MaxK: 8},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.AddBatch(ms); err != nil {
					b.Fatal(err)
				}
				got := len(eng.creditedEstimates()) // credit-filtered, pre-prune
				cntErr = eval.CountingError([]int{len(sc.APs)}, []int{got})
			}
			b.ReportMetric(cntErr, "count_err")
		})
	}
}
