package eval

import (
	"math"
	"testing"
	"testing/quick"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/rng"
)

func TestHungarianKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total = %v, want 5", total)
	}
	want := []int{1, 0, 2}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("assign = %v, want %v", assign, want)
		}
	}
}

func TestHungarianRectangularWide(t *testing.T) {
	// 2 rows, 3 columns: every row matched.
	cost := [][]float64{
		{10, 1, 10},
		{1, 10, 10},
	}
	assign, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 || assign[1] != 0 || total != 2 {
		t.Fatalf("assign = %v total = %v", assign, total)
	}
}

func TestHungarianRectangularTall(t *testing.T) {
	// 3 rows, 2 columns: one row unmatched (−1).
	cost := [][]float64{
		{1, 10},
		{10, 1},
		{10, 10},
	}
	assign, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("total = %v, want 2", total)
	}
	unmatched := 0
	for _, a := range assign {
		if a == -1 {
			unmatched++
		}
	}
	if unmatched != 1 {
		t.Fatalf("assign = %v, want exactly one unmatched row", assign)
	}
}

func TestHungarianRagged(t *testing.T) {
	if _, _, err := Hungarian([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("expected ragged error")
	}
}

func TestHungarianOptimalityProperty(t *testing.T) {
	// Against brute force on small random instances.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + int(seed%4) // 2..5
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Floor(r.Uniform(0, 20))
			}
		}
		_, total, err := Hungarian(cost)
		if err != nil {
			return false
		}
		best := math.Inf(1)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var permute func(k int)
		permute = func(k int) {
			if k == n {
				var s float64
				for i, j := range perm {
					s += cost[i][j]
				}
				if s < best {
					best = s
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				permute(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		permute(0)
		return math.Abs(total-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchPointsIdentity(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}}
	pairs, total := MatchPoints(pts, pts)
	if total != 0 {
		t.Fatalf("total = %v, want 0", total)
	}
	for _, pr := range pairs {
		if pr[0] != pr[1] {
			t.Fatalf("identity matching broken: %v", pairs)
		}
	}
}

func TestMatchPointsEmpty(t *testing.T) {
	if pairs, _ := MatchPoints(nil, []geo.Point{{X: 1, Y: 1}}); pairs != nil {
		t.Fatal("empty input must yield no pairs")
	}
}

func TestLocalizationErrorPaperDefinition(t *testing.T) {
	truth := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	est := []geo.Point{{X: 4, Y: 0}, {X: 100, Y: 4}}
	// Matched distances: 4 and 4; kmin = 2; lattice 8 → (4+4)/(2·8) = 0.5.
	got := LocalizationError(truth, est, 8)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("localization error = %v, want 0.5", got)
	}
}

func TestLocalizationErrorKminUsesSmallerSet(t *testing.T) {
	truth := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	est := []geo.Point{{X: 8, Y: 0}} // one estimate, 8 m from nearest truth
	got := LocalizationError(truth, est, 8)
	if math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("localization error = %v, want 1.0 (kmin=1)", got)
	}
}

func TestLocalizationErrorEdgeCases(t *testing.T) {
	if got := LocalizationError(nil, nil, 8); got != 0 {
		t.Fatalf("empty truth: %v", got)
	}
	if got := LocalizationError([]geo.Point{{X: 1, Y: 1}}, nil, 8); !math.IsInf(got, 1) {
		t.Fatalf("no estimates: %v", got)
	}
}

func TestMeanMatchedDistance(t *testing.T) {
	truth := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	est := []geo.Point{{X: 0, Y: 3}, {X: 10, Y: 4}}
	if got := MeanMatchedDistance(truth, est); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("mean matched distance = %v, want 3.5", got)
	}
}

func TestCountingErrorPaperDefinition(t *testing.T) {
	// Σ|k̂−k| / Σk.
	if got := CountingError([]int{8}, []int{8}); got != 0 {
		t.Fatalf("exact count error = %v", got)
	}
	if got := CountingError([]int{10}, []int{12}); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("count error = %v, want 0.2", got)
	}
	if got := CountingError([]int{5, 5}, []int{4, 7}); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("multi-grid count error = %v, want 0.3", got)
	}
	if got := CountingError([]int{0}, []int{0}); got != 0 {
		t.Fatalf("zero-truth count error = %v", got)
	}
}

func TestBitErrorRate(t *testing.T) {
	if got := BitErrorRate([]int{1, -1, 1, -1}, []int{1, -1, -1, -1}); got != 0.25 {
		t.Fatalf("BER = %v, want 0.25", got)
	}
	if got := BitErrorRate(nil, nil); got != 0 {
		t.Fatalf("empty BER = %v", got)
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	if Mean(xs) != 4 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Median(xs) != 3 {
		t.Fatalf("median = %v", Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even-length median wrong")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty stats should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if Quantile(xs, 0) != 10 || Quantile(xs, 1) != 50 {
		t.Fatal("extremes wrong")
	}
	if got := Quantile(xs, 0.5); got != 30 {
		t.Fatalf("median quantile = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 20 {
		t.Fatalf("q25 = %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestMatchPointsIsPermutationInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + int(seed%5)
		truth := make([]geo.Point, n)
		for i := range truth {
			truth[i] = geo.Point{X: r.Uniform(0, 100), Y: r.Uniform(0, 100)}
		}
		est := make([]geo.Point, n)
		copy(est, truth)
		// Shuffle the estimates; optimal matching cost must stay ~0.
		r.Shuffle(n, func(i, j int) { est[i], est[j] = est[j], est[i] })
		_, total := MatchPoints(truth, est)
		return total < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
