package cs

import (
	"math"
	"testing"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
)

// refineLocal and the window's sensing rows were rewritten to compute each
// distinct number once, under one contract: the same answer to the bit. The
// code they replaced lives on here as the reference.

// groupLogLik is the log-likelihood of a measurement group under a single AP
// at p with the channel's Gaussian observation model: its readings' terms
// summed in group order, which a groupScorer's score must equal to the bit.
func groupLogLik(p geo.Point, group []radio.Measurement, gmm radio.GMMParams) float64 {
	b := sigmaFactor(gmm)
	var ll float64
	for _, m := range group {
		ll += logLikTerm(m, p, gmm.Channel, b)
	}
	return ll
}

// refineLocalRef is refineLocal as it was: every candidate of every sweep
// scored, whether or not the call had scored that point already.
func refineLocalRef(p geo.Point, group []radio.Measurement, lattice float64, gmm radio.GMMParams) (geo.Point, float64) {
	best := p
	bestLL := groupLogLik(p, group, gmm)
	span := lattice
	for zoom := 0; zoom < 2; zoom++ {
		step := span / 4
		improved := true
		for improved {
			improved = false
			for dy := -span; dy <= span; dy += step {
				for dx := -span; dx <= span; dx += step {
					cand := geo.Point{X: best.X + dx, Y: best.Y + dy}
					if ll := groupLogLik(cand, group, gmm); ll > bestLL {
						best, bestLL = cand, ll
						improved = true
					}
				}
			}
		}
		span /= 4
	}
	return best, bestLL
}

// TestRefineLocalMatchesReference draws random groups and starts and holds
// refineLocal to the reference's point and log-likelihood, bit for bit. The
// draws include a NaN and a ±Inf reading, a reading at or above 0 dBm, groups
// of one and groups past maxGroupRows (FinalEstimates polishes on every
// reading an estimate explains), a channel whose mean RSS can be positive, a
// SigmaFactor so small that the 10⁻⁶ floor on σ binds, and a 7.3 m lattice,
// whose quarter and sixteenth steps are inexact, so the candidate squares of
// successive bests meet at points whose bits depend on the path taken.
func TestRefineLocalMatchesReference(t *testing.T) {
	ch := radio.UCIChannel()
	hot := ch
	hot.TxPower = hot.RefLoss + 5
	gmms := []radio.GMMParams{{Channel: ch}, {Channel: ch, SigmaFactor: 0.01}}
	lattices := []float64{20, 7.3, 10, 2.5}
	r := rng.New(34)
	for trial := 0; trial < 240; trial++ {
		ap := geo.Point{X: r.Uniform(0, 200), Y: r.Uniform(0, 200)}
		group := make([]radio.Measurement, 1+r.Intn(30))
		if trial%10 == 8 {
			group = make([]radio.Measurement, maxGroupRows+1+r.Intn(60))
		}
		gmm := gmms[trial%len(gmms)]
		switch trial % 10 {
		case 6:
			gmm.Channel = hot
		case 7:
			gmm.SigmaFactor = 1e-8
		}
		for i := range group {
			p := geo.Point{X: ap.X + r.Uniform(-60, 60), Y: ap.Y + r.Uniform(-60, 60)}
			group[i] = radio.Measurement{Pos: p, RSS: gmm.Channel.MeanRSS(p.Dist(ap)) + r.Normal(0, 3)}
		}
		switch trial % 10 {
		case 1:
			group[r.Intn(len(group))].RSS = math.NaN()
		case 2:
			group[r.Intn(len(group))].RSS = math.Inf(1)
		case 3:
			group[r.Intn(len(group))].RSS = math.Inf(-1)
		case 4:
			group = group[:1]
		case 5:
			group[r.Intn(len(group))].RSS = r.Uniform(0, 10)
		}
		lattice := lattices[trial%len(lattices)]
		start := geo.Point{X: ap.X + r.Uniform(-2, 2)*lattice, Y: ap.Y + r.Uniform(-2, 2)*lattice}

		got, gotLL := refineLocal(start, group, lattice, gmm)
		want, wantLL := refineLocalRef(start, group, lattice, gmm)
		if !pointsEqual([]geo.Point{got}, []geo.Point{want}) || !bitsEqual(gotLL, wantLL) {
			t.Fatalf("trial %d (%d readings, lattice %v, start %v): refineLocal %v ll %v, the reference %v ll %v",
				trial, len(group), lattice, start, got, gotLL, want, wantLL)
		}
	}
}

// TestScoredSetMatchesMap holds the scored-point table to a map keyed by the
// same bits, across several doublings and with the points whose bits and
// values disagree: -0 beside +0, and NaNs.
func TestScoredSetMatchesMap(t *testing.T) {
	type key struct{ x, y uint64 }
	r := rng.New(7)
	pool := []geo.Point{{X: 0, Y: 0}, {X: math.Copysign(0, -1), Y: 0}, {X: math.NaN(), Y: 1}, {X: 1, Y: math.NaN()}}
	for len(pool) < 3000 {
		pool = append(pool, geo.Point{X: r.Uniform(-100, 100), Y: r.Uniform(-100, 100)})
	}
	set := scoredSet{slots: make([]scoredSlot, scoredSetSlots)}
	seen := map[key]bool{}
	for i := 0; i < 3*len(pool); i++ {
		p := pool[r.Intn(len(pool))]
		k := key{math.Float64bits(p.X), math.Float64bits(p.Y)}
		if got, want := set.add(p), !seen[k]; got != want {
			t.Fatalf("add %d (%v) reported new=%v, want %v", i, p, got, want)
		}
		seen[k] = true
	}
	if set.n != len(seen) || len(set.slots) < 2*set.n {
		t.Fatalf("set holds %d points in %d slots; %d distinct were added", set.n, len(set.slots), len(seen))
	}
}

// TestGroupRowsAreBuildSensingMatrixRows: the rows a group copies out of its
// window's sensing matrix are, bit for bit, the matrix BuildSensingMatrix
// builds for the group's readings alone.
func TestGroupRowsAreBuildSensingMatrixRows(t *testing.T) {
	sc, g, ms := uciDrive(t, 3)
	window := ms[40:100]
	sensing := BuildSensingMatrix(g, sc.Channel, window)
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		k := 1 + r.Intn(maxGroupRows)
		rows := make([]int, len(window))
		for i := range rows {
			rows[i] = i
		}
		r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		rows = rows[:k]
		group, y, a := gatherGroup(window, sensing, rows)
		want := BuildSensingMatrix(g, sc.Channel, group)
		gr, gc := a.Dims()
		wr, wc := want.Dims()
		if gr != wr || gc != wc {
			t.Fatalf("trial %d: gathered %dx%d, built %dx%d", trial, gr, gc, wr, wc)
		}
		for i, row := range rows {
			if group[i] != window[row] || !bitsEqual(y[i], window[row].RSS) {
				t.Fatalf("trial %d: row %d gathered reading %+v, want window[%d] = %+v", trial, i, group[i], row, window[row])
			}
			for j, v := range a.RawRow(i) {
				if !bitsEqual(v, want.At(i, j)) {
					t.Fatalf("trial %d: entry (%d,%d) is %v gathered, %v built", trial, i, j, v, want.At(i, j))
				}
			}
		}
	}
}
