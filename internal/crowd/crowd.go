// Package crowd implements CrowdWiFi's offline crowdsourcing component
// (Section 5): the spammer-hammer worker model, (ℓ,γ)-regular bipartite task
// assignment, the Karger-Oh-Shah iterative message-passing inference of
// Eq. 4, the majority-voting and oracle references, a Spearman rank-order
// aggregator standing in for Skyhook's proprietary scheme, the variational
// estimator of the paper's reference [10], and the reliability-weighted
// centroid fusion of Section 5.4.
package crowd

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/par"
	"crowdwifi/internal/rng"
)

// Assignment is a bipartite task↔worker graph.
type Assignment struct {
	// NumTasks and NumWorkers size the two vertex sets.
	NumTasks, NumWorkers int
	// TaskWorkers[i] lists the workers labelling task i.
	TaskWorkers [][]int
	// WorkerTasks[j] lists the tasks labelled by worker j. No estimator
	// reads it: each derives the worker side from TaskWorkers.
	WorkerTasks [][]int
}

// RegularAssignment draws a random (ℓ,γ)-regular bipartite graph: every task
// is labelled by exactly ℓ workers and every worker labels exactly γ tasks.
// The number of workers is numTasks·ℓ/γ, which must be integral. The graph
// is drawn with the configuration model; duplicate edges are resolved by
// re-shuffling, with a deterministic fallback that swaps stubs.
func RegularAssignment(numTasks, l, gamma int, r *rng.RNG) (*Assignment, error) {
	if numTasks <= 0 || l <= 0 || gamma <= 0 {
		return nil, errors.New("crowd: assignment parameters must be positive")
	}
	if (numTasks*l)%gamma != 0 {
		return nil, fmt.Errorf("crowd: numTasks·ℓ = %d not divisible by γ = %d", numTasks*l, gamma)
	}
	numWorkers := numTasks * l / gamma
	if l > numWorkers {
		return nil, fmt.Errorf("crowd: ℓ = %d exceeds the %d available workers", l, numWorkers)
	}

	edges := numTasks * l
	// Stubs: task side is implicit (task i owns stubs i·ℓ..), worker side is
	// a shuffled multiset with γ copies of each worker.
	workerStubs := make([]int, edges)
	for j := 0; j < numWorkers; j++ {
		for c := 0; c < gamma; c++ {
			workerStubs[j*gamma+c] = j
		}
	}

	a := &Assignment{
		NumTasks:    numTasks,
		NumWorkers:  numWorkers,
		TaskWorkers: make([][]int, numTasks),
	}
	const maxShuffles = 200
	for attempt := 0; attempt < maxShuffles; attempt++ {
		r.Shuffle(edges, func(x, y int) { workerStubs[x], workerStubs[y] = workerStubs[y], workerStubs[x] })
		if fixDuplicates(workerStubs, l, r) {
			break
		}
		if attempt == maxShuffles-1 {
			return nil, errors.New("crowd: could not draw a simple regular graph")
		}
	}
	for i := 0; i < numTasks; i++ {
		a.TaskWorkers[i] = append([]int(nil), workerStubs[i*l:(i+1)*l]...)
	}
	return a, nil
}

// fixDuplicates repairs duplicate worker stubs within a task's block by
// swapping with stubs from other blocks. It reports success.
func fixDuplicates(stubs []int, l int, r *rng.RNG) bool {
	n := len(stubs) / l
	for pass := 0; pass < 50; pass++ {
		clean := true
		for i := 0; i < n; i++ {
			block := stubs[i*l : (i+1)*l]
			seen := map[int]int{}
			for bi, w := range block {
				if prev, dup := seen[w]; dup {
					_ = prev
					// Swap the duplicate with a random stub elsewhere.
					other := r.Intn(len(stubs))
					stubs[i*l+bi], stubs[other] = stubs[other], stubs[i*l+bi]
					clean = false
				} else {
					seen[w] = bi
				}
			}
		}
		if clean {
			return true
		}
	}
	return false
}

// SpammerHammer draws worker reliabilities from the discrete spammer-hammer
// prior: q = 1 (hammer) with probability pHammer, else q = 0.5 (spammer).
func SpammerHammer(numWorkers int, pHammer float64, r *rng.RNG) []float64 {
	qs := make([]float64, numWorkers)
	for j := range qs {
		if r.Bernoulli(pHammer) {
			qs[j] = 1
		} else {
			qs[j] = 0.5
		}
	}
	return qs
}

// Labels holds the observed worker answers on an assignment. Values are
// aligned with Assignment.TaskWorkers: Values[i][c] is worker
// TaskWorkers[i][c]'s ±1 answer for task i.
type Labels struct {
	Assignment *Assignment
	Values     [][]int8
}

// GenerateLabels simulates workers answering their assigned tasks: worker j
// reports the true label with probability q[j], the flipped label otherwise.
func GenerateLabels(a *Assignment, truth []int, q []float64, r *rng.RNG) (*Labels, error) {
	if len(truth) != a.NumTasks {
		return nil, errors.New("crowd: truth length must equal the task count")
	}
	if len(q) != a.NumWorkers {
		return nil, errors.New("crowd: reliability length must equal the worker count")
	}
	vals := make([][]int8, a.NumTasks)
	for i, workers := range a.TaskWorkers {
		vals[i] = make([]int8, len(workers))
		for c, j := range workers {
			ans := int8(truth[i])
			if !r.Bernoulli(q[j]) {
				ans = -ans
			}
			vals[i][c] = ans
		}
	}
	return &Labels{Assignment: a, Values: vals}, nil
}

// RandomLabelsTruth draws ±1 task labels uniformly.
func RandomLabelsTruth(numTasks int, r *rng.RNG) []int {
	truth := make([]int, numTasks)
	for i := range truth {
		if r.Bernoulli(0.5) {
			truth[i] = 1
		} else {
			truth[i] = -1
		}
	}
	return truth
}

// MajorityVote estimates task labels by unweighted voting; ties resolve to
// +1. It is the 0th iteration of the iterative inference (Section 5.3).
func MajorityVote(l *Labels) []int {
	out := make([]int, l.Assignment.NumTasks)
	for i, vals := range l.Values {
		var s int
		for _, v := range vals {
			s += int(v)
		}
		if s >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// InferenceOptions tunes the iterative message-passing estimator.
type InferenceOptions struct {
	// MaxIter caps the message-passing rounds (default 100, the paper's
	// setting).
	MaxIter int
	// Tol is the convergence tolerance on message change (default 1e-5, the
	// paper's setting).
	Tol float64
	// RandomInit draws the initial worker messages from Normal(1,1) using
	// Seed; otherwise messages start deterministically at 1.
	RandomInit bool
	// Seed seeds the random initialization.
	Seed uint64
	// Metrics, when non-nil, records sweep counts and run outcomes.
	Metrics *Metrics
}

// InferenceResult carries the iterative inference output.
type InferenceResult struct {
	// Labels are the estimated task labels ẑ = sign(x).
	Labels []int
	// TaskScores are the raw reliability-weighted sums xᵢ.
	TaskScores []float64
	// WorkerReliability is each worker's aggregate message Σ yⱼ→ᵢ, a
	// monotone proxy for qⱼ used by the weighted centroid fusion.
	WorkerReliability []float64
	// Iterations is the number of message-passing rounds performed.
	Iterations int
	// Converged reports whether Tol was reached before MaxIter.
	Converged bool
}

// Infer runs the Karger-Oh-Shah iterative inference of Eq. 4:
//
//	x_{i→j} = Σ_{j'∈Mᵢ\j} L_{ij'}·y_{j'→i}
//	y_{j→i} = Σ_{i'∈Nⱼ\i} L_{i'j}·x_{i'→j}
//
// and estimates ẑᵢ = sign(Σ_j L_{ij}·y_{j→i}).
func Infer(l *Labels, opts InferenceOptions) *InferenceResult {
	return InferContext(context.Background(), l, opts)
}

// InferContext is Infer under a caller context: with a trace span active, the
// inference run appears as a crowd.infer child span carrying the instance
// size and convergence outcome.
func InferContext(ctx context.Context, l *Labels, opts InferenceOptions) *InferenceResult {
	_, span := trace.StartChild(ctx, "crowd.infer")
	defer span.End()
	span.SetAttr("tasks", l.Assignment.NumTasks)
	span.SetAttr("workers", l.Assignment.NumWorkers)
	res := infer(l, opts)
	span.SetAttr("iterations", res.Iterations)
	span.SetAttr("converged", res.Converged)
	return res
}

// parMinEdges gates the parallel message-passing sweeps: below this many
// edges, goroutine dispatch costs more than the sweep arithmetic.
const parMinEdges = 1 << 10

// infer keeps each kind of message in the layout of the sweep that writes
// it. Edge e is (task i, slot c) in task-major order; position p is the same
// edges in worker-major order, each worker's in increasing e. x_{i→j} lives
// in task-major order and y_{j→i} in worker-major order, so each sweep writes
// a contiguous range of its own and gathers the other kind through an int32
// permutation: perm[p] is p's edge, pos[e] is e's position. No sweep writes
// where another goroutine reads or writes, and every sum runs over the same
// terms in the same order as a loop over per-task and per-worker edge lists,
// so the layout changes no bit.
func infer(l *Labels, opts InferenceOptions) *InferenceResult {
	a := l.Assignment
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-5
	}

	tStart := make([]int, a.NumTasks+1)
	wStart := make([]int, a.NumWorkers+1)
	maxDegT, maxDegW := 1, 1
	for i, ws := range a.TaskWorkers {
		tStart[i+1] = tStart[i] + len(ws)
		maxDegT = max(maxDegT, len(ws))
		for _, j := range ws {
			wStart[j+1]++
		}
	}
	for i := len(a.TaskWorkers); i < a.NumTasks; i++ {
		tStart[i+1] = tStart[i]
	}
	for j := 0; j < a.NumWorkers; j++ {
		maxDegW = max(maxDegW, wStart[j+1])
		wStart[j+1] += wStart[j]
	}
	edges := tStart[a.NumTasks]    // each a stored answer: far fewer than 2^31
	labT := make([]float64, edges) // L on edge e
	labW := make([]float64, edges) // L at position p
	perm := make([]int32, edges)
	pos := make([]int32, edges)
	next := append([]int(nil), wStart[:a.NumWorkers]...)
	for i, ws := range a.TaskWorkers {
		for c, j := range ws {
			e, p := tStart[i]+c, next[j]
			next[j]++
			labT[e] = float64(l.Values[i][c])
			labW[p] = labT[e]
			perm[p], pos[e] = int32(e), int32(p)
		}
	}

	y := make([]float64, edges) // y_{j→i} at position p
	var peak float64            // the largest |y|
	if opts.RandomInit {
		r := rng.New(opts.Seed)
		for _, p := range pos {
			y[p] = r.Normal(1, 1)
			peak = max(peak, math.Abs(y[p]))
		}
	} else {
		for p := range y {
			y[p] = 1
		}
		peak = 1
	}
	x := make([]float64, edges)  // x_{i→j} on edge e
	dy := make([]float64, edges) // the last sweep's change in y at position p

	// KOS messages grow geometrically — by ≈ 2^7 a sweep on mixed_aggregate's
	// instance, which ends near 2^700 — and at a hundred answers per worker
	// they outgrow float64 before they converge. Before a sweep that could
	// overflow, the messages are rescaled by an exact power of two. One sweep
	// multiplies the largest |y| by less than (maxDegT+1)(maxDegW+1), the final
	// sums by at most max(maxDegT, maxDegW) more, and min-max normalisation
	// takes one more bit, so below 2^limit nothing can overflow and nothing is
	// rescaled: a run that stays there is bit for bit the unscaled one. Scaling
	// by 2^-k changes no label, and no normalised reliability (unless a message
	// 2^1000 times smaller than the largest turns subnormal).
	limit := 1023 - bits.Len(uint(maxDegT+1)) - bits.Len(uint(maxDegW+1)) - bits.Len(uint(max(maxDegT, maxDegW)))

	// Each task (resp. worker) owns a disjoint range of x (resp. y), so the
	// two sweeps parallelize by partitioning tasks/workers across the pool
	// with no shared writes and the exact serial per-edge arithmetic. The
	// convergence reduction stays serial, in worker-major (j-then-e) order, so
	// delta/norm — and hence the stopping decision and final messages — are
	// bit-identical at any worker count.
	workers := par.DefaultWorkers()
	if edges < parMinEdges {
		workers = 1
	}
	iter := 0
	converged := false
	for ; iter < maxIter; iter++ {
		if _, exp := math.Frexp(peak); exp > limit {
			scale := math.Ldexp(1, -exp)
			for p := range y {
				y[p] *= scale
			}
		}
		// Task → worker messages: x_e = Σ over sibling edges of L·y.
		par.ForBlocks(a.NumTasks, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				e0, e1 := tStart[i], tStart[i+1]
				var sum float64
				for e := e0; e < e1; e++ {
					sum += labT[e] * y[pos[e]]
				}
				for e := e0; e < e1; e++ {
					x[e] = sum - labT[e]*y[pos[e]]
				}
			}
		})
		// Worker → task messages.
		par.ForBlocks(a.NumWorkers, workers, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				p0, p1 := wStart[j], wStart[j+1]
				var sum float64
				for p := p0; p < p1; p++ {
					sum += labW[p] * x[perm[p]]
				}
				for p := p0; p < p1; p++ {
					ny := sum - labW[p]*x[perm[p]]
					dy[p] = ny - y[p]
					y[p] = ny
				}
			}
		})
		var delta, norm float64
		peak = 0
		for p, v := range y {
			delta += dy[p] * dy[p]
			norm += v * v
			if m := math.Abs(v); m > peak {
				peak = m
			}
		}
		if norm > 0 && math.Sqrt(delta/norm) < tol {
			iter++
			converged = true
			break
		}
	}

	scores := make([]float64, a.NumTasks)
	labels := make([]int, a.NumTasks)
	for i := range scores {
		var s float64
		for e := tStart[i]; e < tStart[i+1]; e++ {
			s += labT[e] * y[pos[e]]
		}
		scores[i] = s
		if s >= 0 {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}
	wrel := make([]float64, a.NumWorkers)
	for j := range wrel {
		var s float64
		for p := wStart[j]; p < wStart[j+1]; p++ {
			s += y[p]
		}
		if n := wStart[j+1] - wStart[j]; n > 0 {
			s /= float64(n)
		}
		wrel[j] = s
	}
	res := &InferenceResult{
		Labels:            labels,
		TaskScores:        scores,
		WorkerReliability: wrel,
		Iterations:        iter,
		Converged:         converged,
	}
	opts.Metrics.record(res)
	return res
}

// Oracle estimates labels with the true worker reliabilities known,
// weighting each answer by the log-likelihood ratio log(q/(1−q)) — the
// optimal aggregation rule and the paper's lower bound.
func Oracle(l *Labels, q []float64) ([]int, error) {
	a := l.Assignment
	if len(q) != a.NumWorkers {
		return nil, errors.New("crowd: oracle needs one reliability per worker")
	}
	out := make([]int, a.NumTasks)
	for i, workers := range a.TaskWorkers {
		var s float64
		for c, j := range workers {
			qj := math.Min(math.Max(q[j], 1e-6), 1-1e-6)
			s += float64(l.Values[i][c]) * math.Log(qj/(1-qj))
		}
		if s >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out, nil
}

// SpearmanAggregate is the Skyhook/Place-Lab-style comparator: worker
// weights are Spearman rank-order correlations between each worker's answer
// vector and the current consensus, iterated a few rounds from a
// majority-vote start. Workers negatively correlated with consensus are
// zero-weighted.
func SpearmanAggregate(l *Labels, rounds int) ([]int, []float64) {
	if rounds <= 0 {
		rounds = 3
	}
	a := l.Assignment
	consensus := MajorityVote(l)
	weights := make([]float64, a.NumWorkers)
	// Each worker's answers and the consensus on the same tasks, in
	// ascending task order.
	wAns := make([][]float64, a.NumWorkers)
	cAns := make([][]float64, a.NumWorkers)
	for i, workers := range a.TaskWorkers {
		for c, j := range workers {
			wAns[j] = append(wAns[j], float64(l.Values[i][c]))
		}
	}
	for round := 0; round < rounds; round++ {
		// Score each worker against consensus on their labelled tasks.
		for j := range cAns {
			cAns[j] = cAns[j][:0]
		}
		for i, workers := range a.TaskWorkers {
			for _, j := range workers {
				cAns[j] = append(cAns[j], float64(consensus[i]))
			}
		}
		for j := range weights {
			rho := SpearmanRho(wAns[j], cAns[j])
			if math.IsNaN(rho) || rho < 0 {
				rho = 0
			}
			weights[j] = rho
		}
		// Weighted consensus refresh.
		for i, workers := range a.TaskWorkers {
			var s float64
			for c, j := range workers {
				s += weights[j] * float64(l.Values[i][c])
			}
			if s >= 0 {
				consensus[i] = 1
			} else {
				consensus[i] = -1
			}
		}
	}
	return consensus, weights
}

// SpearmanRho computes the Spearman rank-order correlation coefficient of
// two equal-length samples (NaN for degenerate inputs).
func SpearmanRho(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN()
	}
	ra := ranks(a)
	rb := ranks(b)
	return pearson(ra, rb)
}

func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by value (n is small: γ tasks per worker).
	for i := 1; i < n; i++ {
		for k := i; k > 0 && xs[idx[k]] < xs[idx[k-1]]; k-- {
			idx[k], idx[k-1] = idx[k-1], idx[k]
		}
	}
	out := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for ties.
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(va*vb)
}

// VehicleReport is one crowd-vehicle's uploaded AP constellation.
type VehicleReport struct {
	// Vehicle indexes the reporting crowd-vehicle.
	Vehicle int
	// APs are the vehicle's consolidated AP location estimates.
	APs []geo.Point
}

// FusionOptions tunes WeightedFusion.
type FusionOptions struct {
	// MergeRadius clusters AP reports within this distance (metres).
	MergeRadius float64
	// MinWeight drops fused clusters whose total reliability weight is below
	// this value (0 keeps everything).
	MinWeight float64
	// MinReports drops clusters supported by fewer distinct vehicles.
	MinReports int
}

// WeightedFusion performs the fine-grained estimation of Section 5.4:
// AP reports from multiple crowd-vehicles are clustered by proximity and each
// cluster is collapsed to the reliability-weighted centroid of its reports.
// Reliabilities are clamped to ≥ 0 and a non-finite one counts as 0; a vehicle
// with zero weight contributes nothing.
//
// The clustering is greedy: the heaviest unclustered point, the lowest index
// among equals, seeds a cluster that absorbs every unclustered point within
// the merge radius, and the members are summed in index order. A report's
// points share its weight, so the seeds come in the order of a stable
// weight-descending sort of the reports, point by point; and a seed finds its
// members in the three X-buckets around it (xBuckets) instead of among every
// point.
func WeightedFusion(reports []VehicleReport, reliability []float64, opts FusionOptions) ([]geo.Point, error) {
	radius := opts.MergeRadius
	if !(radius > 0) {
		return nil, errors.New("crowd: fusion requires a positive merge radius")
	}
	sc := fusionScratchPool.Get().(*fusionScratch)
	defer fusionScratchPool.Put(sc)
	weight := resize(sc.weight, len(reports))
	ints := resize(sc.ints, 2*len(reports)+1)
	sc.weight, sc.ints = weight, ints
	first, order := ints[:len(reports)+1], ints[len(reports)+1:] // report k's points are first[k]..first[k+1]-1
	first[0] = 0
	for k, rep := range reports {
		w := 1.0
		if rep.Vehicle >= 0 && rep.Vehicle < len(reliability) {
			w = reliability[rep.Vehicle]
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			w = 0
		}
		weight[k] = w
		first[k+1] = first[k] + len(rep.APs)
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weight[b], weight[a]) })
	pts, owner := sc.pts[:0], sc.owner[:0] // owner is each point's report
	for k, rep := range reports {
		pts = append(pts, rep.APs...)
		for range rep.APs {
			owner = append(owner, int32(k))
		}
	}
	sc.pts, sc.owner = pts, owner

	buckets := &sc.buckets
	buckets.fill(pts, radius)
	used := resize(sc.used, len(pts))
	clear(used)
	sc.used = used
	members := sc.members
	vehicles := sc.vehicles
	if opts.MinReports > 0 && vehicles == nil {
		vehicles = map[int]bool{}
		sc.vehicles = vehicles
	}
	out := sc.out[:0]
	for _, k := range order {
		for seed := first[k]; seed < first[k+1]; seed++ {
			if used[seed] {
				continue
			}
			members = buckets.appendWithin(members[:0], pts, used, pts[seed], radius)
			used[seed] = true // even if it is not its own member, being NaN
			var sx, sy, sw float64
			for _, j := range members {
				used[j] = true
				w := weight[owner[j]]
				sx += w * pts[j].X
				sy += w * pts[j].Y
				sw += w
			}
			if sw <= 0 || sw < opts.MinWeight {
				continue
			}
			if opts.MinReports > 0 {
				clear(vehicles)
				for _, j := range members {
					if weight[owner[j]] > 0 {
						vehicles[reports[owner[j]].Vehicle] = true
					}
				}
				if len(vehicles) < opts.MinReports {
					continue
				}
			}
			out = append(out, geo.Point{X: sx / sw, Y: sy / sw})
		}
	}
	sc.members, sc.out = members, out
	if len(out) == 0 {
		return nil, nil
	}
	return slices.Clone(out), nil
}

// fusionScratch is what a WeightedFusion call works in, kept for the next
// one: a cycle fuses thousands of segments of a few dozen points each, and
// would otherwise allocate all of it again per segment. Only the fused
// points are returned, in memory of their own.
type fusionScratch struct {
	weight   []float64
	ints     []int
	pts      []geo.Point
	owner    []int32
	buckets  xBuckets
	used     []bool
	members  []int32
	vehicles map[int]bool
	out      []geo.Point
}

var fusionScratchPool = sync.Pool{New: func() any { return new(fusionScratch) }}

// resize returns s at length n, reusing its memory when it holds enough.
// What it holds is left as it was.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// xBuckets files point indices by X into buckets of equal width, each bucket
// in index order (a counting sort), the buckets contiguous in idx.
//
// A bucket is at least (1 + 2^-20) merge radii wide, so a point within the
// radius of a seed lies in the seed's bucket or a neighbour: a bucket index
// is computed with an error below 2^-51 per bucket the points span, and there
// are at most 2^24 buckets, so two points |Δx| ≤ radius apart land less than
// one bucket apart. A NaN or infinite X falls into an end bucket (an infinite
// one leaves a single bucket); it is nobody's member.
type xBuckets struct {
	minX, width float64
	start       []int   // bucket b is idx[start[b]:start[b+1]]
	idx         []int32 // point indices
	// Squared distances below near are within the radius and above far are
	// beyond it; between the two, math.Hypot decides (see appendWithin).
	near, far float64
}

// fill files pts for radius, reusing the memory b's last filing used.
func (b *xBuckets) fill(pts []geo.Point, radius float64) {
	b.width, b.near, b.far = radius*(1+0x1p-20), -1, math.Inf(1)
	if radius >= 0x1p-500 && radius <= 0x1p500 { // else r² may leave the normal range
		b.near, b.far = radius*radius*(1-0x1p-40), radius*radius*(1+0x1p-40)
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
	}
	b.minX = minX
	n := 1
	if span := maxX - minX; span > 0 && span < math.Inf(1) {
		limit := min(len(pts), 1<<24)
		if f := span / b.width; f < float64(limit) {
			n = int(f) + 1
		} else {
			n, b.width = limit, max(b.width, span/float64(limit))
		}
	}
	// Count into start[k+1], turn counts into starts, file each point at its
	// bucket's cursor, which leaves start[k] at bucket k's end; shift back.
	b.start = resize(b.start, n+1)
	clear(b.start)
	for _, p := range pts {
		b.start[b.of(p.X)+1]++
	}
	for k := 1; k <= n; k++ {
		b.start[k] += b.start[k-1]
	}
	b.idx = resize(b.idx, len(pts))
	for i, p := range pts {
		k := b.of(p.X)
		b.idx[b.start[k]] = int32(i)
		b.start[k]++
	}
	copy(b.start[1:], b.start[:n])
	b.start[0] = 0
}

// of is x's bucket. It never decreases as x grows, so buckets are ordered
// intervals of X.
func (b *xBuckets) of(x float64) int {
	f := (x - b.minX) / b.width
	last := len(b.start) - 2
	switch {
	case !(f >= 0): // below the first, or NaN
		return 0
	case f >= float64(last):
		return last
	}
	return int(f)
}

// appendWithin appends to dst, in index order, every unused point whose
// distance to seed, math.Hypot(Δx, Δy), is at most radius. |Δx| and |Δy| are
// tested first: Hypot is never below either. Then the squared distance
// settles all but a sliver around r²: the computed Δx² + Δy² is within a few
// ulps of the true one, and Hypot within a few ulps of its square root, so
// outside r²(1 ± 2^-40) both say the same.
func (b *xBuckets) appendWithin(dst []int32, pts []geo.Point, used []bool, seed geo.Point, radius float64) []int32 {
	k := b.of(seed.X)
	lo, hi := b.start[max(k-1, 0)], b.start[min(k+2, len(b.start)-1)]
	for _, j := range b.idx[lo:hi] {
		if used[j] {
			continue
		}
		dx := pts[j].X - seed.X
		if !(math.Abs(dx) <= radius) {
			continue
		}
		dy := pts[j].Y - seed.Y
		if !(math.Abs(dy) <= radius) {
			continue
		}
		if d2 := dx*dx + dy*dy; d2 < b.near || (d2 <= b.far && math.Hypot(dx, dy) <= radius) {
			dst = append(dst, j)
		}
	}
	// Three runs in index order, usually already one.
	if !slices.IsSorted(dst) {
		slices.Sort(dst)
	}
	return dst
}

// NormalizeReliability maps raw reliability scores (e.g. KOS worker
// messages) onto [0,1] weights by min-max scaling with a floor so that the
// least reliable vehicle still counts slightly when all scores are equal.
func NormalizeReliability(raw []float64) []float64 {
	if len(raw) == 0 {
		return nil
	}
	lo, hi := raw[0], raw[0]
	for _, v := range raw {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	out := make([]float64, len(raw))
	if hi == lo {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	for i, v := range raw {
		out[i] = 0.05 + 0.95*(v-lo)/(hi-lo)
	}
	return out
}
