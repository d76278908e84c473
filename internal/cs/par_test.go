package cs

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
)

// benchWindow mirrors twoAPWindow for benchmarks (testing.TB keeps one body
// serving both).
func parWindow(tb testing.TB, seed uint64) (*grid.Grid, radio.Channel, []radio.Measurement) {
	tb.Helper()
	r := rng.New(seed)
	ch := radio.UCIChannel()
	aps := []geo.Point{{X: 30, Y: 30}, {X: 90, Y: 80}, {X: 40, Y: 95}}
	g, err := grid.FromRect(geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 120, Y: 110}}, 10)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := geo.NewTrajectory([]geo.Point{
		{X: 10, Y: 10}, {X: 50, Y: 40}, {X: 70, Y: 30}, {X: 100, Y: 60}, {X: 80, Y: 100},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var ms []radio.Measurement
	for i, p := range tr.SampleByDistance(tr.Length() / 39) {
		near := aps[0]
		for _, ap := range aps[1:] {
			if p.Dist(ap) < p.Dist(near) {
				near = ap
			}
		}
		ms = append(ms, radio.Measurement{Pos: p, RSS: ch.SampleRSS(p.Dist(near), r), Time: float64(i)})
	}
	return g, ch, ms
}

// setWorkers pins the worker count, GOMAXPROCS, for the rest of the test (no
// test in the repository runs in parallel with another).
func setWorkers(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSelectModelParallelBitIdentical is the determinism property test for
// speculative parallel model selection: the parallel climb replays evaluation
// results in ascending-K order through the same stopping rule as the serial
// loop, so the winning hypothesis must match bit-for-bit — same K, same BIC
// and log-likelihood floats, same AP coordinates — at any worker count.
func TestSelectModelParallelBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g, ch, ms := parWindow(t, seed)

		setWorkers(t, 1)
		serial, serr := SelectModel(g, ch, ms, SelectOptions{MaxK: 6})
		setWorkers(t, 4)
		parallel, perr := SelectModel(g, ch, ms, SelectOptions{MaxK: 6})

		if (serr == nil) != (perr == nil) {
			t.Fatalf("seed %d: error mismatch: serial %v parallel %v", seed, serr, perr)
		}
		if serr != nil {
			continue
		}
		if serial.K != parallel.K || serial.BIC != parallel.BIC || serial.LogLik != parallel.LogLik {
			t.Fatalf("seed %d: serial (K=%d BIC=%v LL=%v) != parallel (K=%d BIC=%v LL=%v)",
				seed, serial.K, serial.BIC, serial.LogLik, parallel.K, parallel.BIC, parallel.LogLik)
		}
		if len(serial.APs) != len(parallel.APs) {
			t.Fatalf("seed %d: AP count %d != %d", seed, len(serial.APs), len(parallel.APs))
		}
		for i := range serial.APs {
			if serial.APs[i] != parallel.APs[i] {
				t.Fatalf("seed %d: AP %d: %v != %v", seed, i, serial.APs[i], parallel.APs[i])
			}
		}
	}
}

// TestEvaluateKParallelBitIdentical checks per-group parallel recovery alone:
// groups are independent and results splice back in group order.
func TestEvaluateKParallelBitIdentical(t *testing.T) {
	g, ch, ms := parWindow(t, 9)
	setWorkers(t, 1)
	serial, serr := EvaluateK(g, ch, ms, 3, HypothesisOptions{})
	setWorkers(t, 4)
	parallel, perr := EvaluateK(g, ch, ms, 3, HypothesisOptions{})
	if serr != nil || perr != nil {
		t.Fatalf("errors: serial %v parallel %v", serr, perr)
	}
	if serial.BIC != parallel.BIC || serial.LogLik != parallel.LogLik || len(serial.APs) != len(parallel.APs) {
		t.Fatalf("serial (BIC=%v LL=%v |APs|=%d) != parallel (BIC=%v LL=%v |APs|=%d)",
			serial.BIC, serial.LogLik, len(serial.APs), parallel.BIC, parallel.LogLik, len(parallel.APs))
	}
	for i := range serial.APs {
		if serial.APs[i] != parallel.APs[i] {
			t.Fatalf("AP %d: %v != %v", i, serial.APs[i], parallel.APs[i])
		}
	}
}

// TestSelectModelCanceledContext is the regression test for the cancellation
// satellite: a canceled context must abort model selection with a wrapped
// context error rather than grinding through every K.
func TestSelectModelCanceledContext(t *testing.T) {
	g, ch, ms := parWindow(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		setWorkers(t, workers)
		_, err := SelectModelContext(ctx, g, ch, ms, SelectOptions{MaxK: 6})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want wrapped context.Canceled", workers, err)
		}
	}
}

// TestEngineCanceledContextAborts checks the engine surfaces cancellation
// from a round instead of reporting an empty round.
func TestEngineCanceledContextAborts(t *testing.T) {
	_, _, ms := parWindow(t, 3)
	area := geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 120, Y: 110}}
	e, err := NewEngine(EngineConfig{
		Channel:    radio.UCIChannel(),
		Lattice:    10,
		Area:       &area,
		WindowSize: 40,
		StepSize:   10,
		Select:     SelectOptions{MaxK: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if _, err := e.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.FlushContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("FlushContext err = %v, want wrapped context.Canceled", err)
	}
}

func benchmarkSelectModel(b *testing.B, workers int) {
	g, ch, ms := parWindow(b, 7)
	setWorkers(b, workers)
	opts := SelectOptions{MaxK: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectModel(g, ch, ms, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectModelSerial(b *testing.B)    { benchmarkSelectModel(b, 1) }
func BenchmarkSelectModelParallel4(b *testing.B) { benchmarkSelectModel(b, 4) }

// --- engine regression tests for the expiry and coalesce changes ---

// TestEngineExpireOutOfOrderArrivals is the regression test for the expiry
// satellite: before the ordered-insert fix, expire stopped at the first
// non-expired sample scanning from the front, so a stale measurement that
// arrived late (behind a fresh one in arrival order) was never dropped.
func TestEngineExpireOutOfOrderArrivals(t *testing.T) {
	e, err := NewEngine(EngineConfig{
		Channel:    radio.UCIChannel(),
		Lattice:    10,
		WindowSize: 60,
		StepSize:   60, // keep rounds out of the way
		TTL:        50,
	})
	if err != nil {
		t.Fatal(err)
	}
	add := func(tm float64) {
		t.Helper()
		if _, err := e.Add(radio.Measurement{Pos: geo.Point{X: tm, Y: 1}, RSS: -60, Time: tm}); err != nil {
			t.Fatal(err)
		}
	}
	add(100)
	add(5) // late, stale delivery: sinks to the buffer front
	if len(e.buf) != 2 || e.buf[0].Time != 5 {
		t.Fatalf("buffer not time-ordered after late arrival: %+v", e.buf)
	}
	add(101) // TTL now makes Time=5 expired relative to 101
	for _, m := range e.buf {
		if m.Time == 5 {
			t.Fatalf("stale out-of-order measurement survived expiry: %+v", e.buf)
		}
	}
	if len(e.buf) != 2 {
		t.Fatalf("buffer len = %d, want 2 (times 100 and 101): %+v", len(e.buf), e.buf)
	}
}

// referenceClosestPair is the original O(n²) full scan; coalesce's bucketed
// search must select the identical pair.
func referenceClosestPair(ests []Estimate, r float64) (int, int) {
	bi, bj, bd := -1, -1, math.Inf(1)
	for i := 0; i < len(ests); i++ {
		for j := i + 1; j < len(ests); j++ {
			if d := ests[i].Pos.Dist(ests[j].Pos); d < bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	if bi < 0 || bd > r {
		return -1, -1
	}
	return bi, bj
}

// TestCoalesceMatchesBruteForce drives the bucketed closest-pair search and
// the original full scan over the same random estimate sets (sized to force
// the spatial-hash path) and requires identical pair selection at every merge
// step, hence identical final estimate sets.
func TestCoalesceMatchesBruteForce(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 20; trial++ {
		e, err := NewEngine(EngineConfig{Channel: radio.UCIChannel(), Lattice: 10, MergeRadius: 8})
		if err != nil {
			t.Fatal(err)
		}
		n := 30 + r.Intn(40)
		for i := 0; i < n; i++ {
			e.estimates = append(e.estimates, Estimate{
				Pos:    geo.Point{X: r.Uniform(0, 200), Y: r.Uniform(0, 150)},
				Credit: 1 + r.Float64()*3,
			})
		}
		ref := append([]Estimate(nil), e.estimates...)

		for step := 0; ; step++ {
			wi, wj := referenceClosestPair(ref, 8)
			gi, gj := e.closestPairWithin(8)
			if gi != wi || gj != wj {
				t.Fatalf("trial %d step %d: bucketed pair (%d,%d) != reference (%d,%d)",
					trial, step, gi, gj, wi, wj)
			}
			if wi < 0 {
				break
			}
			// Apply the merge to both sets identically via the engine.
			merges := e.coalesce()
			// coalesce runs to completion; replay the reference to completion
			// too, then compare final sets.
			for {
				ri, rj := referenceClosestPair(ref, 8)
				if ri < 0 {
					break
				}
				a, b := ref[ri], ref[rj]
				total := a.Credit + b.Credit
				ref[ri] = Estimate{
					Pos: geo.Point{
						X: (a.Pos.X*a.Credit + b.Pos.X*b.Credit) / total,
						Y: (a.Pos.Y*a.Credit + b.Pos.Y*b.Credit) / total,
					},
					Credit:    total,
					FirstSeen: min(a.FirstSeen, b.FirstSeen),
					LastSeen:  max(a.LastSeen, b.LastSeen),
				}
				ref = append(ref[:rj], ref[rj+1:]...)
			}
			if merges != n-len(ref) {
				t.Fatalf("trial %d: coalesce reported %d merges, reference made %d",
					trial, merges, n-len(ref))
			}
			break
		}
		if len(e.estimates) != len(ref) {
			t.Fatalf("trial %d: %d estimates != reference %d", trial, len(e.estimates), len(ref))
		}
		for i := range ref {
			if e.estimates[i] != ref[i] {
				t.Fatalf("trial %d: estimate %d: %+v != reference %+v", trial, i, e.estimates[i], ref[i])
			}
		}
	}
}
