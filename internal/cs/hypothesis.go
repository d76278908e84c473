package cs

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/mat"
	"crowdwifi/internal/par"
	"crowdwifi/internal/radio"
)

// Hypothesis is the outcome of evaluating one candidate AP count K for a
// window of RSS measurements: the recovered AP locations, the measurement →
// AP assignment, and the GMM/BIC score used for model selection.
type Hypothesis struct {
	// K is the hypothesized AP count.
	K int
	// APs holds the recovered (continuous) AP locations, one per group that
	// produced a usable estimate. len(APs) may be less than K when a group
	// collapses.
	APs []geo.Point
	// Assign maps each measurement index to its AP group in [0, K).
	Assign []int
	// LogLik is the GMM log-likelihood of the window given APs (Eq. 1).
	LogLik float64
	// BIC is the Bayesian information criterion score (Section 4.3.5);
	// larger is better.
	BIC float64
}

// HypothesisOptions configures the (AP,RSS) combination search.
type HypothesisOptions struct {
	// Recovery configures the per-group ℓ1 recovery.
	Recovery RecoveryOptions
	// GMM configures the likelihood model; the channel must match the one
	// used to build sensing matrices.
	GMM radio.GMMParams
	// Seeds, when non-empty, provides initial cluster centres for the
	// measurement partition (e.g. from StrongReadingSeeds); farthest-first
	// traversal fills any remaining clusters.
	Seeds []geo.Point

	// memo is the enclosing model selection's recovery memo; SelectModelContext
	// and a lone EvaluateKContext make their own.
	memo *recoveryMemo
	// sensing is the sensing matrix of the whole window, row i for reading i;
	// a group's matrix is a copy of its rows. SelectModelContext and a lone
	// EvaluateKContext build it for the window they were given and never take
	// it from their caller.
	sensing *mat.Mat
}

const (
	// refinements is the number of assign→recover→reassign iterations. The
	// exhaustive combination search of Proposition 2 is Ω(M^M); this hard-EM
	// surrogate explores the same space greedily.
	refinements = 3
	// maxGroupRows caps the measurements fed into one group's CS recovery,
	// keeping the strongest readings. Distant, weak readings carry little
	// position information but dominate the recovery cost; this is the
	// per-group analogue of the paper's sliding-window bound on M.
	maxGroupRows = 24
	// lobeSeparation controls mirror-ambiguity handling. RSS collected along a
	// straight segment cannot distinguish an AP from its reflection across the
	// drive line, so the recovered support is bimodal; when the two support
	// lobes are farther apart than lobeSeparation lattice lengths, both lobe
	// centroids are emitted and credit consolidation across later (bent)
	// windows discards the phantom.
	lobeSeparation = 1.5
)

// ErrTooManyGroups is returned when K exceeds the measurement count.
var ErrTooManyGroups = errors.New("cs: hypothesized K exceeds the number of measurements")

// EvaluateK recovers an AP constellation under the hypothesis that exactly K
// APs produced the window. Measurements are partitioned into K groups, each
// group is solved as an independent CS recovery over the grid, group
// centroids become AP estimates, and measurements are re-assigned to the AP
// that explains them best; a few refinement rounds approximate the paper's
// combination search. The hypothesis is scored with the GMM likelihood and
// BIC. Equivalent to EvaluateKContext with context.Background().
func EvaluateK(g *grid.Grid, ch radio.Channel, window []radio.Measurement, k int, opts HypothesisOptions) (*Hypothesis, error) {
	return EvaluateKContext(context.Background(), g, ch, window, k, opts)
}

// EvaluateKContext is EvaluateK under a caller context. The context is
// checked between refinement rounds and threaded into every per-group ℓ1
// solve, so a per-round deadline (or a losing speculative branch of
// SelectModel) aborts promptly with a wrapped ctx.Err().
func EvaluateKContext(ctx context.Context, g *grid.Grid, ch radio.Channel, window []radio.Measurement, k int, o HypothesisOptions) (*Hypothesis, error) {
	if len(window) == 0 {
		return nil, ErrNoMeasurements
	}
	if k <= 0 || k > len(window) {
		return nil, ErrTooManyGroups
	}
	o.sensing = BuildSensingMatrix(g, ch, window)
	return evaluateK(ctx, g, ch, window, k, o)
}

// evaluateK is EvaluateKContext for a k in [1, len(window)], with o.sensing
// built for window.
func evaluateK(ctx context.Context, g *grid.Grid, ch radio.Channel, window []radio.Measurement, k int, o HypothesisOptions) (*Hypothesis, error) {
	if o.GMM.Channel == (radio.Channel{}) {
		o.GMM.Channel = ch
	}
	if o.memo == nil {
		o.memo = newRecoveryMemo()
	}

	assign := seedAssignment(window, k, o.Seeds)
	var aps []geo.Point
	for round := 0; round < refinements; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cs: hypothesis K=%d canceled: %w", k, err)
		}
		var err error
		aps, err = recoverGroups(ctx, g, window, assign, k, o)
		if err != nil {
			return nil, err
		}
		if len(aps) == 0 {
			break
		}
		changed := reassign(window, assign, aps, o.GMM)
		if !changed {
			break
		}
	}
	if len(aps) == 0 {
		return nil, fmt.Errorf("cs: hypothesis K=%d produced no AP estimates", k)
	}
	aps = mergeClose(aps, 1.5*g.Lattice)
	ll := o.GMM.LogLikelihood(window, aps)
	return &Hypothesis{
		K:      k,
		APs:    aps,
		Assign: assign,
		LogLik: ll,
		BIC:    radio.BIC(ll, len(aps), len(window)),
	}, nil
}

// seedAssignment deterministically partitions measurements into k groups.
// Seeds come first from RSS peaks along the drive (a vehicle passing an AP
// sees its RSS rise and fall, so temporal peaks mark distinct APs), then from
// farthest-first traversal when more seeds are needed. Measurements join the
// nearest seed.
func seedAssignment(window []radio.Measurement, k int, seeds []geo.Point) []int {
	n := len(window)
	assign := make([]int, n)
	if k == 1 {
		return assign
	}
	centers := make([]geo.Point, 0, k)
	for _, p := range seeds {
		if len(centers) == k {
			break
		}
		centers = append(centers, p)
	}
	for _, idx := range rssPeaks(window) {
		if len(centers) == k {
			break
		}
		centers = append(centers, window[idx].Pos)
	}
	if len(centers) == 0 {
		best := 0
		for i, m := range window {
			if m.RSS > window[best].RSS {
				best = i
			}
		}
		centers = append(centers, window[best].Pos)
	}
	for len(centers) < k {
		farIdx, farDist := 0, -1.0
		for i, m := range window {
			dMin := math.Inf(1)
			for _, c := range centers {
				if d := m.Pos.Dist(c); d < dMin {
					dMin = d
				}
			}
			if dMin > farDist {
				farDist, farIdx = dMin, i
			}
		}
		centers = append(centers, window[farIdx].Pos)
	}
	for i, m := range window {
		bestJ, bestD := 0, math.Inf(1)
		for j, c := range centers {
			if d := m.Pos.Dist(c); d < bestD {
				bestJ, bestD = j, d
			}
		}
		assign[i] = bestJ
	}
	return assign
}

// rssPeaks returns the indices of local maxima of the (smoothed) RSS series
// in window order, strongest first. The series is smoothed with a short
// moving average so shadow fading does not fragment one pass-by into several
// peaks.
func rssPeaks(window []radio.Measurement) []int {
	n := len(window)
	if n == 0 {
		return nil
	}
	const half = 2 // 5-sample moving average
	smooth := make([]float64, n)
	for i := range smooth {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		var s float64
		for j := lo; j <= hi; j++ {
			s += window[j].RSS
		}
		smooth[i] = s / float64(hi-lo+1)
	}
	var peaks []int
	for i := range smooth {
		isPeak := true
		for j := i - half; j <= i+half; j++ {
			if j < 0 || j >= n || j == i {
				continue
			}
			if smooth[j] > smooth[i] {
				isPeak = false
				break
			}
		}
		if isPeak && (len(peaks) == 0 || i-peaks[len(peaks)-1] > half) {
			peaks = append(peaks, i)
		}
	}
	sort.Slice(peaks, func(a, b int) bool { return smooth[peaks[a]] > smooth[peaks[b]] })
	return peaks
}

// mergeClose collapses AP estimates closer than minSep into their centroid;
// overlapping clusters and split lobes otherwise inflate the constellation.
func mergeClose(aps []geo.Point, minSep float64) []geo.Point {
	out := append([]geo.Point(nil), aps...)
	for {
		bi, bj, bd := -1, -1, minSep
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if d := out[i].Dist(out[j]); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		if bi < 0 {
			return out
		}
		out[bi] = geo.Point{X: (out[bi].X + out[bj].X) / 2, Y: (out[bi].Y + out[bj].Y) / 2}
		out = append(out[:bj], out[bj+1:]...)
	}
}

// recoverGroups runs one CS recovery per non-empty group and returns the
// resulting AP location estimates (group order preserved, empty groups
// skipped). Groups are independent, so with more than one worker
// (par.DefaultWorkers) they are recovered concurrently; per-group results are
// spliced back in group order, making the output bit-identical to the serial
// loop. Errors surface as a serial ascending loop would: the lowest-indexed
// failing group wins.
func recoverGroups(ctx context.Context, g *grid.Grid, window []radio.Measurement, assign []int, k int, o HypothesisOptions) ([]geo.Point, error) {
	perGroup, err := par.Map(ctx, k, 0, func(j int) ([]geo.Point, error) {
		return recoverGroup(ctx, g, window, assign, j, o)
	})
	if err != nil {
		return nil, err
	}
	aps := make([]geo.Point, 0, k)
	for _, pts := range perGroup {
		aps = append(aps, pts...)
	}
	return aps, nil
}

// recoverGroup recovers the AP estimate(s) for group j: the strongest
// readings assigned to j feed one ℓ1 recovery over the grid, and the support
// centroid is polished by local likelihood maximization (with lobe splitting
// for mirror-ambiguous straight segments). It returns zero, one, or two
// points. A group whose rows this model selection has already solved, or is
// solving on another goroutine, is answered from o.memo; a failed or canceled
// solve leaves nothing there.
func recoverGroup(ctx context.Context, g *grid.Grid, window []radio.Measurement, assign []int, j int, o HypothesisOptions) ([]geo.Point, error) {
	var rows []int
	for i, a := range assign {
		if a == j {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if len(rows) > maxGroupRows {
		// Keep the strongest readings; they pin the AP location.
		sort.Slice(rows, func(a, b int) bool { return window[rows[a]].RSS > window[rows[b]].RSS })
		rows = rows[:maxGroupRows]
	}
	key := memoKey(rows)
	pts, hit, owned, err := o.memo.claim(ctx, key)
	if hit || err != nil {
		return pts, err
	}
	group, y, a := gatherGroup(window, o.sensing, rows)
	theta, err := RecoverTheta(ctx, a, y, o.Recovery)
	if err == nil {
		pts = locateSupport(g, theta, group, o.GMM)
	}
	if owned {
		o.memo.release(key, pts, err == nil)
	}
	return pts, err
}

// gatherGroup returns the readings of a group's window rows, their RSS and
// their sensing matrix, copied out of the window's: a row depends on its
// reading's position alone, so it is the row BuildSensingMatrix would build
// for the group.
func gatherGroup(window []radio.Measurement, sensing *mat.Mat, rows []int) ([]radio.Measurement, []float64, *mat.Mat) {
	_, n := sensing.Dims()
	group := make([]radio.Measurement, len(rows))
	y := make([]float64, len(rows))
	a := mat.New(len(rows), n)
	for i, r := range rows {
		group[i] = window[r]
		y[i] = window[r].RSS
		copy(a.RawRow(i), sensing.RawRow(r))
	}
	return group, y, a
}

// locateSupport turns one group's recovered θ into zero, one or two AP
// estimates: the dominant-coefficient centroid, or both lobe centroids of a
// mirror-ambiguous support, each polished against the group's likelihood.
func locateSupport(g *grid.Grid, theta []float64, group []radio.Measurement, gmm radio.GMMParams) []geo.Point {
	p, ok := g.Centroid(theta, grid.CentroidOptions{})
	if !ok {
		return nil
	}
	if lobes := g.SplitSupport(theta, 2, grid.CentroidOptions{}); len(lobes) == 2 &&
		lobes[0].Dist(lobes[1]) > lobeSeparation*g.Lattice {
		// Bimodal support: mirror-ambiguous recovery. Polish both lobe
		// centroids against the group likelihood; keep both only when the
		// data genuinely cannot tell them apart, otherwise the better one.
		l0, ll0 := refineLocal(lobes[0], group, g.Lattice, gmm)
		l1, ll1 := refineLocal(lobes[1], group, g.Lattice, gmm)
		const ambiguityLL = 1.0
		switch {
		case ll0-ll1 > ambiguityLL:
			return []geo.Point{l0}
		case ll1-ll0 > ambiguityLL:
			return []geo.Point{l1}
		default:
			return []geo.Point{l0, l1}
		}
	}
	refined, _ := refineLocal(p, group, g.Lattice, gmm)
	return []geo.Point{refined}
}

// refineLocal polishes a coarse AP estimate by maximizing the group's
// single-AP log-likelihood over a local square around the estimate (grid
// search at quarter-lattice resolution, one zoom round). This realizes the
// paper's stated objective — "find the optimum K AP locations such that the
// probability p(R) is maximized" (Section 4.2.1) — with CS supplying the
// coarse starting point. It returns the refined point and its group
// log-likelihood.
//
// A point is scored at most once per call: a candidate is taken only when it
// beats bestLL, which never decreases, so a point scored before either became
// the best or lost to a bestLL no larger than the current one, and loses again
// (a NaN score loses every comparison). Squares around successive bests overlap, and
// about half of the candidates they name were already scored. A candidate is
// scored by a groupScorer, which stops once it cannot beat bestLL.
func refineLocal(p geo.Point, group []radio.Measurement, lattice float64, gmm radio.GMMParams) (geo.Point, float64) {
	scored := scoredSet{slots: make([]scoredSlot, scoredSetSlots)}
	var order [maxGroupRows]int32
	var rest [maxGroupRows + 1]float64
	var terms [maxGroupRows]float64
	sc := newGroupScorer(group, gmm, order[:0], rest[:0], terms[:0])
	scored.add(p)
	best := p
	bestLL, _ := sc.score(p, math.Inf(-1))
	span := lattice
	for zoom := 0; zoom < 2; zoom++ {
		step := span / 4
		improved := true
		for improved {
			improved = false
			for dy := -span; dy <= span; dy += step {
				for dx := -span; dx <= span; dx += step {
					cand := geo.Point{X: best.X + dx, Y: best.Y + dy}
					if !scored.add(cand) {
						continue
					}
					if ll, ok := sc.score(cand, bestLL); ok && ll > bestLL {
						best, bestLL = cand, ll
						improved = true
					}
				}
			}
		}
		span /= 4
	}
	if t := tally; t != nil {
		t.scored.Add(int64(scored.n - 1))
		t.terms.Add(int64(sc.evaluated))
	}
	return best, bestLL
}

// groupScorer is groupLogLik for one group, scored against a bar: the readings
// are taken strongest-first, and a candidate is dropped as soon as its terms
// so far plus an upper bound on each term still to come fall below bestLL, by
// a margin that covers the rounding of both sums. A candidate that is not
// dropped has its terms summed in group order, so its score is groupLogLik's
// to the bit, and a dropped one could not have beaten bestLL.
//
// The bound on one reading's term holds at every candidate position. With
// m = −μ ≥ m_lo = −MeanRSS(RefDist) > 0 (μ never rises with distance: the
// exponent is ≥ 0) and σ = b·m never at its 10⁻⁶ floor (b·m_lo ≥ 10⁻⁶), the
// term −(R − m)²/(2b²m²) − log(bm), R = −RSS, is at most −log(bm) ≤
// −log(b·m_lo). For R > 0 it is largest over m > 0 at m* = R(√(1+4b²) −
// 1)/(2b²), so it is at most −log(b·max(m*, m_lo)); for R ≤ 0, m* ≤ 0 and
// that is the first bound. Where a condition fails the bound is +Inf, and
// nothing is dropped before that reading is scored; a NaN RSS makes it NaN,
// which drops nothing in its group.
type groupScorer struct {
	group []radio.Measurement
	ch    radio.Channel
	b     float64
	// order lists the readings strongest-first; rest[k] is the sum of the
	// bounds of order[k:], and boundAbs the sum of the finite bounds' sizes.
	order    []int32
	rest     []float64
	boundAbs float64
	// terms holds the candidate's terms by group index.
	terms []float64
	// evaluated counts the terms computed, for the count tests.
	evaluated int
}

// newGroupScorer readies a scorer for group in the given tables, which hold
// groups of up to their capacity without growing.
func newGroupScorer(group []radio.Measurement, gmm radio.GMMParams, order []int32, rest, terms []float64) groupScorer {
	b := sigmaFactor(gmm)
	n := len(group)
	if n > cap(order) {
		order, rest, terms = make([]int32, 0, n), make([]float64, 0, n+1), make([]float64, 0, n)
	}
	for i := range group {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(i, j int32) int {
		// Strongest first, NaN last, ties by index.
		return cmp.Or(cmp.Compare(group[j].RSS, group[i].RSS), cmp.Compare(i, j))
	})
	ch := gmm.Channel
	mLo := -ch.MeanRSS(ch.RefDist)
	rest = rest[:n+1]
	rest[n] = 0
	var boundAbs float64
	for k := n - 1; k >= 0; k-- {
		ub := math.Inf(1)
		if r := -group[order[k]].RSS; mLo > 0 && b*mLo >= 1e-6 && ch.Exponent >= 0 {
			mStar := r * (math.Sqrt(1+4*b*b) - 1) / (2 * b * b)
			ub = -math.Log(b * max(mStar, mLo))
		}
		if !math.IsInf(ub, 0) {
			boundAbs += math.Abs(ub)
		}
		rest[k] = rest[k+1] + ub
	}
	return groupScorer{group: group, ch: ch, b: b, order: order, rest: rest, boundAbs: boundAbs, terms: terms[:n]}
}

// score returns p's groupLogLik and true, or false once p cannot score above
// bestLL.
func (s *groupScorer) score(p geo.Point, bestLL float64) (float64, bool) {
	var partial, abs float64
	for k, i := range s.order {
		t := logLikTerm(s.group[i], p, s.ch, s.b)
		s.terms[i] = t
		partial += t
		abs += math.Abs(t)
		if partial+s.rest[k+1] < bestLL-1e-9*(abs+s.boundAbs+1) {
			s.evaluated += k + 1
			return 0, false
		}
	}
	s.evaluated += len(s.order)
	var ll float64
	for _, t := range s.terms {
		ll += t
	}
	return ll, true
}

// scoredSet is the set of points one refineLocal call has scored, keyed by the
// exact bits of X and Y (so -0 and +0 are two points, and a NaN is found by
// its own bits): open addressing with linear probing in a power-of-two table
// that doubles at half load.
type scoredSet struct {
	slots []scoredSlot
	n     int
}

type scoredSlot struct {
	x, y uint64
	full bool
}

// scoredSetSlots holds, below half load, every call of a seeded UCI drive
// (none scores 448 points), so the table stays on refineLocal's stack. At 512
// slots a call past 256 points grew it on the heap: a tenth of a full-window
// selection's bytes.
const scoredSetSlots = 1024

// add inserts p and reports whether it was new.
func (s *scoredSet) add(p geo.Point) bool {
	x, y := math.Float64bits(p.X), math.Float64bits(p.Y)
	mask := uint64(len(s.slots) - 1)
	for i := pointHash(x, y) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if !sl.full {
			*sl = scoredSlot{x: x, y: y, full: true}
			s.n++
			if 2*s.n > len(s.slots) {
				s.grow()
			}
			return true
		}
		if sl.x == x && sl.y == y {
			return false
		}
	}
}

func (s *scoredSet) grow() {
	old := s.slots
	s.slots = make([]scoredSlot, 2*len(old))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if !sl.full {
			continue
		}
		i := pointHash(sl.x, sl.y) & mask
		for s.slots[i].full {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// pointHash mixes the bits of both coordinates into every bit of the hash
// (splitmix64's finalizer), so a table index can take the low bits.
func pointHash(x, y uint64) uint64 {
	h := x*0x9e3779b97f4a7c15 ^ y
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// sigmaFactor is gmm's b, the ratio of σ to |μ|.
func sigmaFactor(gmm radio.GMMParams) float64 {
	if gmm.SigmaFactor == 0 {
		return radio.DefaultSigmaFactor
	}
	return gmm.SigmaFactor
}

// logLikTerm is one reading's log-likelihood under a single AP at p: a
// Gaussian around the channel's mean RSS with σ = b·|μ|, at least 10⁻⁶.
func logLikTerm(m radio.Measurement, p geo.Point, ch radio.Channel, b float64) float64 {
	mu := ch.MeanRSS(m.Pos.Dist(p))
	sigma := b * math.Abs(mu)
	if sigma < 1e-6 {
		sigma = 1e-6
	}
	z := (m.RSS - mu) / sigma
	return -0.5*z*z - math.Log(sigma)
}

// reassign moves each measurement to the AP that maximizes its per-reading
// Gaussian likelihood under the channel model. It reports whether any
// assignment changed. When there are more groups than APs (a group
// collapsed), indices are taken modulo len(aps).
func reassign(window []radio.Measurement, assign []int, aps []geo.Point, gmm radio.GMMParams) bool {
	b := sigmaFactor(gmm)
	changed := false
	for i, m := range window {
		bestJ, bestLL := 0, math.Inf(-1)
		for j, ap := range aps {
			if ll := logLikTerm(m, ap, gmm.Channel, b); ll > bestLL {
				bestJ, bestLL = j, ll
			}
		}
		if assign[i] != bestJ {
			assign[i] = bestJ
			changed = true
		}
	}
	return changed
}

// PruneConstellation runs the reality check used after model selection:
// greedy backward elimination of APs under the full-window BIC, followed by
// a local likelihood polish of each survivor against its support (the
// measurements it explains best). It is the single-shot analogue of the
// engine's FinalEstimates.
func PruneConstellation(aps []geo.Point, window []radio.Measurement, ch radio.Channel, gmm radio.GMMParams, lattice float64) []geo.Point {
	if len(aps) == 0 || len(window) == 0 {
		return aps
	}
	if gmm.Channel == (radio.Channel{}) {
		gmm.Channel = ch
	}
	keep := eliminateByBIC(aps, window, gmm)
	cands := make([]geo.Point, len(keep))
	for i, k := range keep {
		cands[i] = aps[k]
	}
	// Polish survivors on their support groups.
	for i := range cands {
		var group []radio.Measurement
		for _, m := range window {
			d := m.Pos.Dist(cands[i])
			closest := true
			for j := range cands {
				if j != i && m.Pos.Dist(cands[j]) < d {
					closest = false
					break
				}
			}
			if closest {
				group = append(group, m)
			}
		}
		if len(group) >= 3 {
			refined, _ := refineLocal(cands[i], group, lattice, gmm)
			cands[i] = refined
		}
	}
	return cands
}

// eliminateByBIC is the reality check's greedy backward elimination: while
// more than one point is left, it drops the one whose removal most improves
// the BIC of window, and stops when no removal helps. It returns the indices
// of the points kept, in their order in pts.
func eliminateByBIC(pts []geo.Point, window []radio.Measurement, gmm radio.GMMParams) []int {
	keep := make([]int, len(pts))
	for i := range keep {
		keep[i] = i
	}
	bic := func(set []geo.Point) float64 {
		return radio.BIC(gmm.LogLikelihood(window, set), len(set), len(window))
	}
	cur := bic(pts)
	for len(keep) > 1 {
		bestIdx := -1
		bestBIC := cur
		for i := range keep {
			trial := make([]geo.Point, 0, len(keep)-1)
			for j, k := range keep {
				if j != i {
					trial = append(trial, pts[k])
				}
			}
			if b := bic(trial); b > bestBIC {
				bestBIC, bestIdx = b, i
			}
		}
		if bestIdx < 0 {
			break
		}
		keep = append(keep[:bestIdx], keep[bestIdx+1:]...)
		cur = bestBIC
	}
	return keep
}

// SelectOptions configures model-order selection over K.
type SelectOptions struct {
	// Hypothesis configures each EvaluateK call.
	Hypothesis HypothesisOptions
	// MaxK caps the hypothesis space (default min(M, 12); the paper's upper
	// bound on K is the number of measurements M).
	MaxK int
	// Patience is the number of consecutive non-improving K values tolerated
	// before stopping the climb (default 3).
	Patience int
	// SeedHeuristic anchors the search with StrongReadingSeeds (seeds at
	// least two grid lattices apart): the climb starts from the seed count and
	// explores ±seedSlack around it instead of climbing from K = 1.
	// Recommended for scattered reference points (the Fig. 8 workload), where
	// temporal RSS peaks carry no information.
	SeedHeuristic bool
}

// seedSlack is the ± range a seeded search explores around the seed count.
const seedSlack = 3

// StrongReadingSeeds estimates AP seed positions from readings strong enough
// to pin an AP within minSep metres: readings are taken strongest-first and
// accepted as seeds when no prior seed lies within minSep. The accepted
// positions approximate the AP constellation and their count approximates K.
func StrongReadingSeeds(window []radio.Measurement, ch radio.Channel, minSep float64) []geo.Point {
	if minSep <= 0 || len(window) == 0 {
		return nil
	}
	idx := make([]int, len(window))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return window[idx[a]].RSS > window[idx[b]].RSS })
	// A reading within minSep of an AP is at least this strong (plus slack
	// for shadowing).
	threshold := ch.MeanRSS(minSep) - 2
	var seeds []geo.Point
	for _, i := range idx {
		m := window[i]
		if m.RSS < threshold {
			break
		}
		ok := true
		for _, s := range seeds {
			if m.Pos.Dist(s) < minSep {
				ok = false
				break
			}
		}
		if ok {
			seeds = append(seeds, m.Pos)
		}
	}
	return seeds
}

// SelectModel searches K = 1, 2, ... for the hypothesis maximizing BIC
// (Section 4.3.5), climbing until Patience consecutive K values fail to
// improve. It returns the best hypothesis found. Equivalent to
// SelectModelContext with context.Background().
func SelectModel(g *grid.Grid, ch radio.Channel, window []radio.Measurement, opts SelectOptions) (*Hypothesis, error) {
	return SelectModelContext(context.Background(), g, ch, window, opts)
}

// climbState replays the serial K-climb's stopping rule over per-K outcomes
// fed in ascending order. Both the serial loop and the speculative parallel
// search drive this one state machine, so their selected hypotheses are
// identical by construction.
type climbState struct {
	best     *Hypothesis
	bad      int
	patience int
	stopped  bool
}

// consume feeds the outcome for the next K in ascending order and reports
// whether the climb goes on.
func (c *climbState) consume(h *Hypothesis, err error) bool {
	switch {
	case err != nil:
		// A failed hypothesis (e.g. collapsed groups) counts against
		// patience but does not abort the search.
		c.bad++
		if c.best != nil && c.bad >= c.patience {
			c.stopped = true
		}
	case c.best == nil || h.BIC > c.best.BIC:
		c.best = h
		c.bad = 0
	default:
		c.bad++
		if c.bad >= c.patience {
			c.stopped = true
		}
	}
	return !c.stopped
}

// SelectModelContext is SelectModel under a caller context: a canceled
// context aborts the search (and its solver iterations) promptly with a
// wrapped ctx.Err(). With more than one worker (par.DefaultWorkers) the
// candidate K values are evaluated speculatively in parallel. The parallel
// search replays the serial climb's exact stopping rule over the speculative
// results in ascending K order, so the selected hypothesis is bit-identical to
// the serial path: best BIC wins, lowest K wins ties, and the patience window
// cuts off the same K values.
func SelectModelContext(ctx context.Context, g *grid.Grid, ch radio.Channel, window []radio.Measurement, opts SelectOptions) (*Hypothesis, error) {
	if len(window) == 0 {
		return nil, ErrNoMeasurements
	}
	maxK := opts.MaxK
	if maxK <= 0 {
		maxK = 12
	}
	if maxK > len(window) {
		maxK = len(window)
	}
	patience := opts.Patience
	if patience <= 0 {
		patience = 3
	}
	kLo := 1
	if opts.SeedHeuristic {
		seeds := StrongReadingSeeds(window, ch, 2*g.Lattice)
		if len(seeds) > 0 {
			opts.Hypothesis.Seeds = seeds
			kLo = len(seeds) - seedSlack
			if hi := len(seeds) + seedSlack; hi < maxK {
				maxK = hi
			}
			if maxK > len(window) {
				maxK = len(window)
			}
			if kLo > maxK {
				kLo = maxK
			}
			if kLo < 1 {
				kLo = 1
			}
		}
	}

	// Every K of this selection recovers over the same window, grid and
	// options, so they share one recovery memo and one set of sensing rows.
	if opts.Hypothesis.memo == nil {
		opts.Hypothesis.memo = newRecoveryMemo()
	}
	opts.Hypothesis.sensing = BuildSensingMatrix(g, ch, window)

	workers := par.DefaultWorkers()
	climb := climbState{patience: patience}
	if workers <= 1 || maxK-kLo == 0 {
		for k := kLo; k <= maxK && !climb.stopped; k++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("cs: model selection canceled: %w", err)
			}
			climb.consume(evaluateK(ctx, g, ch, window, k, opts.Hypothesis))
		}
	} else {
		selectParallel(ctx, &climb, g, ch, window, kLo, maxK, workers, opts.Hypothesis)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cs: model selection canceled: %w", err)
	}
	if climb.best == nil {
		return nil, errors.New("cs: no hypothesis could be evaluated")
	}
	return climb.best, nil
}

// selectParallel evaluates the K candidates [kLo, maxK] speculatively on a
// bounded pool. Results are consumed strictly in ascending K through the
// same climbState the serial loop uses; once the climb stops (the point the
// serial search would have reached), the speculative context is canceled so
// losing branches abort their solver iterations instead of running to
// completion. K values past the stopping point are computed at most
// wastefully, never observed — determinism does not depend on scheduling.
func selectParallel(ctx context.Context, climb *climbState, g *grid.Grid, ch radio.Channel, window []radio.Measurement, kLo, maxK, workers int, hopts HypothesisOptions) {
	nK := maxK - kLo + 1
	type outcome struct {
		h   *Hypothesis
		err error
	}
	results := make([]outcome, nK)
	completed := make(chan int, nK)
	spec, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		defer close(completed)
		_ = par.Do(spec, nK, workers, func(i int) error {
			h, err := evaluateK(spec, g, ch, window, kLo+i, hopts)
			results[i] = outcome{h, err}
			completed <- i
			return nil
		})
	}()
	ready := make([]bool, nK)
	next := 0
	for idx := range completed {
		ready[idx] = true
		if climb.stopped {
			continue // draining after cancel
		}
		for next < nK && ready[next] {
			r := results[next]
			next++
			if !climb.consume(r.h, r.err) || ctx.Err() != nil {
				// The serial climb would stop here; losing speculative
				// branches are canceled and their results discarded.
				cancel()
				break
			}
		}
	}
}
