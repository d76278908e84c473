package cs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"crowdwifi/internal/grid"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
)

// goldenDigest is the SHA-256 TestGoldenDigest computes, recorded when the
// wide ADMM loop moved to its (z, v) form with a screen (internal/solve): the
// same iterates in another rounding, which moves a few of the 400-iteration
// solves' supports and, through them, the drives. Its baseline, recorded when
// Proposition 1 moved from a thin SVD of each group's sensing matrix to the
// eigendecomposition of its Gram matrix, was
// 51d05038fe5d91ae866f4fb57f0667ef717414012c9ba92275424d21ae7e8bd8; the SVD
// baseline before that, recorded at f2b3e16, was
// 5f816a754a862c1b6fe35f48b8f5242566754c59e0888d6f658395faa8f802c5. A change
// that means to move no bit of the vehicle's answers keeps the digest; one
// that means to (a seeded climb, an ADMM warm start) replaces it, and has the
// old value as its baseline.
const goldenDigest = "d2b25070c60377fbdf993e18edc8415d56878be9cf816ba73d1afe929916ef32"

// digest hashes integers and the exact bits of floats.
type digest struct{ buf []byte }

func (d *digest) int(v int) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(int64(v))) }

func (d *digest) float(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}

// hypothesis adds K, BIC, LogLik and every AP; a nil hypothesis (an
// unproductive window, a failed call) adds a marker of its own.
func (d *digest) hypothesis(h *Hypothesis) {
	if h == nil {
		d.int(-1)
		return
	}
	d.int(h.K)
	d.float(h.BIC)
	d.float(h.LogLik)
	d.int(len(h.APs))
	for _, p := range h.APs {
		d.float(p.X)
		d.float(p.Y)
	}
}

// TestGoldenDigest pins every number the vehicle's numeric core hands on: each
// round and final estimate of six seeded drives at the vehicle_drive
// configuration (bench/drive.go), two Fig. 8-style model selections over
// scattered reference points (internal/exp/fig8.go) and one exhaustive
// EvaluateK. The value is amd64's: arm64 fuses multiply-adds and rounds
// differently.
func TestGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest was recorded on amd64; this is %s", runtime.GOARCH)
	}
	var d digest

	for seed := uint64(1); seed <= 6; seed++ {
		sc, _, ms := uciDrive(t, seed)
		e := uciEngine(t, sc, SelectOptions{MaxK: uciMaxK})
		round := func(r *RoundResult, err error) {
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if r == nil {
				return
			}
			d.int(r.Round)
			d.int(r.WindowLen)
			d.hypothesis(r.Hypothesis)
		}
		for _, m := range ms {
			round(e.Add(m))
		}
		round(e.Flush())
		finals := e.FinalEstimates()
		if len(finals) == 0 {
			t.Fatalf("seed %d: no final estimates", seed)
		}
		d.int(len(finals))
		for _, est := range finals {
			d.float(est.Pos.X)
			d.float(est.Pos.Y)
			d.float(est.Credit)
		}
	}

	ch := radio.UCIChannel()
	for _, c := range []struct {
		seed uint64
		k, m int
	}{{11, 4, 24}, {12, 6, 30}} {
		r := rng.New(c.seed)
		sc, err := sim.RandomScenario("golden", 240, c.k, 24, 8, ch, 100, r)
		if err != nil {
			t.Fatal(err)
		}
		g, err := grid.FromRect(sc.Area, 8)
		if err != nil {
			t.Fatal(err)
		}
		ms := sc.CollectAt(sc.RandomPoints(c.m, r), 5, r)
		opts := SelectOptions{MaxK: len(ms)/3 + 2, Patience: 6, SeedHeuristic: true}
		opts.Hypothesis.GMM = radio.GMMParams{Channel: ch, WeightScale: 10, SigmaFactor: 0.01}
		h, err := SelectModel(g, ch, ms, opts)
		if err != nil {
			t.Fatalf("scattered selection, seed %d: %v", c.seed, err)
		}
		d.hypothesis(h)
	}

	sc, g, ms := uciDrive(t, 4)
	h, err := evaluateKExhaustive(g, sc.Channel, ms[100:107], 2, HypothesisOptions{})
	if err != nil {
		t.Fatalf("exhaustive EvaluateK: %v", err)
	}
	d.hypothesis(h)
	for _, a := range h.Assign {
		d.int(a)
	}

	sum := sha256.Sum256(d.buf)
	if got := hex.EncodeToString(sum[:]); got != goldenDigest {
		t.Fatalf("digest %s, want %s: the vehicle's answers moved", got, goldenDigest)
	}
}
