// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Fig. 5–11), printing the same rows the paper reports, plus
// ablation benches for the design choices called out in DESIGN.md and
// micro-benchmarks for crowd inference and matching. The numerical kernels'
// micro-benchmarks sit beside them, at the shapes the vehicle workload runs:
// internal/mat, internal/solve, internal/cs.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The figure benches run one full (reduced-parameter) experiment per
// iteration and print its table once; cmd/crowdwifi-exp runs the full
// parameter grids.
package crowdwifi

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"crowdwifi/internal/crowd"
	"crowdwifi/internal/cs"
	"crowdwifi/internal/eval"
	"crowdwifi/internal/exp"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
	"crowdwifi/internal/wal"
)

// printOnce prints each experiment table a single time even when the bench
// harness re-runs the function.
var printOnce sync.Map

func report(b *testing.B, key string, t *exp.Table) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(t)
	}
}

func benchTable(b *testing.B, key string, gen func() (*exp.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		report(b, key, t)
	}
}

// BenchmarkFig5OnlineCS regenerates Fig. 5: online CS on the UCI map,
// checkpointed at 60/120/180 samples.
func BenchmarkFig5OnlineCS(b *testing.B) {
	benchTable(b, "fig5", func() (*exp.Table, error) { return exp.Fig5(2014) })
}

// BenchmarkFig6LatticeSweep regenerates Fig. 6 on a reduced lattice grid.
func BenchmarkFig6LatticeSweep(b *testing.B) {
	benchTable(b, "fig6", func() (*exp.Table, error) {
		return exp.Fig6(2014, []float64{4, 8, 12, 16, 20}, 1)
	})
}

// BenchmarkFig7aWorkersPerTask regenerates Fig. 7(a).
func BenchmarkFig7aWorkersPerTask(b *testing.B) {
	benchTable(b, "fig7a", func() (*exp.Table, error) { return exp.Fig7a(2014, 20) })
}

// BenchmarkFig7bTasksPerWorker regenerates Fig. 7(b).
func BenchmarkFig7bTasksPerWorker(b *testing.B) {
	benchTable(b, "fig7b", func() (*exp.Table, error) { return exp.Fig7b(2014, 20) })
}

// BenchmarkFig8Sparsity regenerates Fig. 8(a,b) on a reduced k grid.
func BenchmarkFig8Sparsity(b *testing.B) {
	benchTable(b, "fig8ab", func() (*exp.Table, error) {
		return exp.Fig8Sparsity(2014, 1, []int{10, 20, 30, 40})
	})
}

// BenchmarkFig8Measurements regenerates Fig. 8(c,d) on a reduced M grid.
func BenchmarkFig8Measurements(b *testing.B) {
	benchTable(b, "fig8cd", func() (*exp.Table, error) {
		return exp.Fig8Measurements(2014, 1, []int{40, 80, 160})
	})
}

// BenchmarkFig9Testbed regenerates the Fig. 9 testbed study.
func BenchmarkFig9Testbed(b *testing.B) {
	benchTable(b, "fig9", func() (*exp.Table, error) { return exp.Fig9(2014) })
}

// BenchmarkFig10Sessions regenerates the Fig. 10 connectivity study.
func BenchmarkFig10Sessions(b *testing.B) {
	benchTable(b, "fig10", func() (*exp.Table, error) { return exp.Fig10(2014, 900) })
}

// BenchmarkFig11Transfers regenerates the Fig. 11 transfer study.
func BenchmarkFig11Transfers(b *testing.B) {
	benchTable(b, "fig11", func() (*exp.Table, error) {
		return exp.Fig11(2014, 900, []float64{0, 1, 2, 3}, 1)
	})
}

// --- Ablation benches (design choices from DESIGN.md) ---

// ablationScene builds a fixed single-AP recovery problem.
func ablationScene(seed uint64, m int) (*grid.Grid, radio.Channel, []radio.Measurement, geo.Point) {
	ch := radio.UCIChannel()
	g, err := grid.FromRect(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100}), 10)
	if err != nil {
		panic(err)
	}
	r := rng.New(seed)
	ap := geo.Point{X: 43, Y: 67}
	ms := make([]radio.Measurement, m)
	for i := range ms {
		p := geo.Point{X: r.Uniform(0, 100), Y: r.Uniform(0, 100)}
		ms[i] = radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(ap), r), Time: float64(i)}
	}
	return g, ch, ms, ap
}

func recoveryError(b *testing.B, opts cs.RecoveryOptions) float64 {
	b.Helper()
	g, ch, ms, ap := ablationScene(7, 20)
	a := cs.BuildSensingMatrix(g, ch, ms)
	y := make([]float64, len(ms))
	for i, m := range ms {
		y[i] = m.RSS
	}
	theta, err := cs.RecoverTheta(context.Background(), a, y, opts)
	if err != nil {
		b.Fatal(err)
	}
	p, ok := g.Centroid(theta, grid.CentroidOptions{})
	if !ok {
		return 100
	}
	return p.Dist(ap)
}

// BenchmarkAblationOrthogonalization measures Prop. 1's transform on vs off.
func BenchmarkAblationOrthogonalization(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			opts := cs.RecoveryOptions{SkipOrthogonalize: !on}
			var errM float64
			for i := 0; i < b.N; i++ {
				errM = recoveryError(b, opts)
			}
			b.ReportMetric(errM, "loc_err_m")
		})
	}
}

// BenchmarkAblationWindow sweeps the sliding-window size on the UCI drive.
func BenchmarkAblationWindow(b *testing.B) {
	sc := sim.UCI()
	for _, window := range []int{30, 60, 90} {
		b.Run(fmt.Sprintf("w%d", window), func(b *testing.B) {
			var errM float64
			for i := 0; i < b.N; i++ {
				r := rng.New(2014)
				ms, err := sc.Drive(sim.DriveConfig{Trajectory: sim.UCIDrive(), NumSamples: 180, SNR: 30}, r)
				if err != nil {
					b.Fatal(err)
				}
				area := sc.Area
				eng, err := cs.NewEngine(cs.EngineConfig{
					Channel: sc.Channel, Radius: sc.Radius, Lattice: sc.Lattice,
					Area: &area, WindowSize: window, StepSize: 10,
					MergeRadius: 1.5 * sc.Lattice, Select: cs.SelectOptions{MaxK: 8},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.AddBatch(ms); err != nil {
					b.Fatal(err)
				}
				pts := make([]geo.Point, 0)
				for _, e := range eng.FinalEstimates() {
					pts = append(pts, e.Pos)
				}
				errM = eval.MeanMatchedDistance(sc.APs, pts)
			}
			b.ReportMetric(errM, "mean_err_m")
		})
	}
}

// BenchmarkAblationBIC compares BIC model selection against fixed-K
// evaluation on a two-AP window.
func BenchmarkAblationBIC(b *testing.B) {
	ch := radio.UCIChannel()
	g, err := grid.FromRect(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 120, Y: 110}), 10)
	if err != nil {
		b.Fatal(err)
	}
	aps := []geo.Point{{X: 30, Y: 30}, {X: 90, Y: 80}}
	r := rng.New(3)
	tr, err := geo.NewTrajectory([]geo.Point{
		{X: 10, Y: 10}, {X: 50, Y: 40}, {X: 70, Y: 30}, {X: 100, Y: 60}, {X: 80, Y: 100},
	})
	if err != nil {
		b.Fatal(err)
	}
	var ms []radio.Measurement
	for i, p := range tr.SampleByDistance(tr.Length() / 29) {
		near := aps[0]
		if p.Dist(aps[1]) < p.Dist(aps[0]) {
			near = aps[1]
		}
		ms = append(ms, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(near), r), Time: float64(i)})
	}
	b.Run("bic-select", func(b *testing.B) {
		var k int
		for i := 0; i < b.N; i++ {
			h, err := cs.SelectModel(g, ch, ms, cs.SelectOptions{MaxK: 5})
			if err != nil {
				b.Fatal(err)
			}
			k = len(h.APs)
		}
		b.ReportMetric(float64(k), "est_k")
	})
	b.Run("fixed-k2", func(b *testing.B) {
		var k int
		for i := 0; i < b.N; i++ {
			h, err := cs.EvaluateK(g, ch, ms, 2, cs.HypothesisOptions{})
			if err != nil {
				b.Fatal(err)
			}
			k = len(h.APs)
		}
		b.ReportMetric(float64(k), "est_k")
	})
}

// BenchmarkAblationInference compares deterministic vs random message
// initialization for the iterative inference (paper Section 5.3).
func BenchmarkAblationInference(b *testing.B) {
	r := rng.New(5)
	a, err := crowd.RegularAssignment(500, 5, 25, r)
	if err != nil {
		b.Fatal(err)
	}
	truth := crowd.RandomLabelsTruth(500, r)
	q := crowd.SpammerHammer(a.NumWorkers, 0.5, r)
	labels, err := crowd.GenerateLabels(a, truth, q, r)
	if err != nil {
		b.Fatal(err)
	}
	for _, randomInit := range []bool{false, true} {
		name := "deterministic"
		if randomInit {
			name = "random-normal"
		}
		b.Run(name, func(b *testing.B) {
			var ber float64
			for i := 0; i < b.N; i++ {
				res := crowd.Infer(labels, crowd.InferenceOptions{RandomInit: randomInit, Seed: 9})
				ber = eval.BitErrorRate(truth, res.Labels)
			}
			b.ReportMetric(ber, "bit_err")
		})
	}
}

// BenchmarkEngineAdd measures the metrics overhead on the online-CS hot
// path: the same UCI drive streamed sample-by-sample through Engine.Add with
// instrumentation off (nil Metrics) and on (live registry). The two
// sub-benchmark times should agree within a few percent — instruments only
// fire at round boundaries, never per sample.
func BenchmarkEngineAdd(b *testing.B) {
	sc := sim.UCI()
	r := rng.New(2014)
	ms, err := sc.Drive(sim.DriveConfig{Trajectory: sim.UCIDrive(), NumSamples: 180, SNR: 30}, r)
	if err != nil {
		b.Fatal(err)
	}
	for _, instrumented := range []bool{false, true} {
		name := "noop"
		var metrics *cs.Metrics
		if instrumented {
			name = "instrumented"
			metrics = cs.NewMetrics(obs.NewRegistry())
		}
		b.Run(name, func(b *testing.B) {
			area := sc.Area
			cfg := cs.EngineConfig{
				Channel: sc.Channel, Radius: sc.Radius, Lattice: sc.Lattice,
				Area: &area, WindowSize: 60, StepSize: 10,
				MergeRadius: 1.5 * sc.Lattice, Select: cs.SelectOptions{MaxK: 8},
				Metrics: metrics,
			}
			eng, err := cs.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Add(ms[i%len(ms)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks for crowd inference and matching ---

func BenchmarkIterativeInference1000(b *testing.B) {
	r := rng.New(3)
	a, err := crowd.RegularAssignment(1000, 5, 25, r)
	if err != nil {
		b.Fatal(err)
	}
	truth := crowd.RandomLabelsTruth(1000, r)
	q := crowd.SpammerHammer(a.NumWorkers, 0.5, r)
	labels, err := crowd.GenerateLabels(a, truth, q, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crowd.Infer(labels, crowd.InferenceOptions{})
	}
}

func BenchmarkHungarian40(b *testing.B) {
	r := rng.New(4)
	cost := make([][]float64, 40)
	for i := range cost {
		cost[i] = make([]float64, 40)
		for j := range cost[i] {
			cost[i][j] = r.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eval.Hungarian(cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures the durable write path under each fsync
// policy: "always" is the cost of ack⇒durable (one fsync per record appended
// alone), "off" leaves durability to the OS. ~256-byte payloads approximate
// one report record.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, pol := range []struct {
		name string
		sync wal.SyncPolicy
	}{{"always", wal.SyncAlways}, {"off", wal.SyncOff}} {
		b.Run("fsync="+pol.name, func(b *testing.B) {
			l, _, err := wal.Open(b.TempDir(), wal.Options{Sync: pol.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
