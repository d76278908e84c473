package cs

import (
	"math"
	"testing"

	"crowdwifi/internal/eval"
	"crowdwifi/internal/geo"
)

// TestDrivesFindTheAPs holds the vehicle to the benchmark's accuracy gate,
// bench/drive.go's checkDrives, on six seeded drives at its vehicle_drive
// configuration: each drive finds 8 ± 2 of the route's 8 APs, the drives find
// 8 ± 0.75 on average, and their median mean matched error is at most 5 m.
// TestGoldenDigest can only say that the vehicle's answers moved; this says
// whether they got worse.
// Under the race detector it is skipped: it checks numbers, not concurrency,
// and TestGoldenDigest drives the same engine there.
func TestDrivesFindTheAPs(t *testing.T) {
	if raceEnabled {
		t.Skip("six drives under the race detector take minutes; see TestGoldenDigest")
	}
	const (
		countSlack     = 2
		meanCountSlack = 0.75
		medianErr      = 5.0
	)
	var want int
	var found, errs []float64
	for seed := uint64(7); seed <= 12; seed++ {
		sc, _, ms := uciDrive(t, seed)
		e := uciEngine(t, sc, SelectOptions{MaxK: uciMaxK})
		if _, err := e.AddBatch(ms); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		var pts []geo.Point
		for _, est := range e.FinalEstimates() {
			pts = append(pts, est.Pos)
		}
		want = len(sc.APs)
		if n := len(pts); n < want-countSlack || n > want+countSlack {
			t.Errorf("seed %d: found %d APs, want %d ± %d", seed, n, want, countSlack)
		}
		found = append(found, float64(len(pts)))
		errs = append(errs, eval.MeanMatchedDistance(sc.APs, pts))
		t.Logf("seed %d: %d APs, mean matched error %.2f m", seed, len(pts), errs[len(errs)-1])
	}
	if m := eval.Mean(found); math.Abs(m-float64(want)) > meanCountSlack {
		t.Errorf("the drives found %.2f APs on average, want %d ± %.2f", m, want, meanCountSlack)
	}
	if m := eval.Median(errs); m > medianErr {
		t.Errorf("median drive's mean matched error %.2f m, want at most %.0f m", m, medianErr)
	}
}
