package cs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/radio"
)

// Estimate is a consolidated AP estimate with its accumulated credit
// (Section 4.3.6).
type Estimate struct {
	// Pos is the credit-weighted location estimate.
	Pos geo.Point
	// Credit counts how many rounds voted for this location.
	Credit float64
	// FirstSeen and LastSeen are the engine round indices bracketing the
	// estimate's support.
	FirstSeen, LastSeen int
}

// EngineConfig configures the online CS engine.
type EngineConfig struct {
	// Channel is the propagation model shared with the simulator.
	Channel radio.Channel
	// Radius is the collector's communication radius rm, used for grid
	// formation (Section 4.3.1).
	Radius float64
	// Area, when non-nil, fixes the grid to this rectangle for every round
	// instead of re-forming it from each window's bounding box. The paper's
	// evaluation scenarios (a known campus map) use a fixed area; dynamic
	// formation is for unbounded driving.
	Area *geo.Rect
	// Lattice is the grid cell edge length in metres.
	Lattice float64
	// WindowSize s is the sliding window length in samples (default 60, the
	// paper's UCI setting).
	WindowSize int
	// StepSize q is the number of new samples per round (default 10).
	StepSize int
	// TTL expires samples older than this many seconds (0 disables expiry).
	TTL float64
	// MergeRadius merges estimates closer than this during consolidation
	// (default: one lattice length).
	MergeRadius float64
	// MinCredit filters spurious estimates in Estimates() and
	// FinalEstimates() (default 1: an estimate seen only once is dropped, per
	// the paper).
	MinCredit float64
	// Select configures per-round model selection.
	Select SelectOptions
	// Metrics, when non-nil, instruments rounds, consolidation, and the
	// underlying solvers. A nil value adds no per-sample overhead.
	Metrics *Metrics
}

func (c EngineConfig) fill() (EngineConfig, error) {
	if err := c.Channel.Validate(); err != nil {
		return c, err
	}
	if c.Lattice <= 0 {
		return c, errors.New("cs: engine requires a positive lattice length")
	}
	if c.Radius < 0 {
		return c, errors.New("cs: engine requires a non-negative radius")
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 60
	}
	if c.StepSize <= 0 {
		c.StepSize = 10
	}
	if c.StepSize > c.WindowSize {
		return c, fmt.Errorf("cs: step size %d exceeds window size %d", c.StepSize, c.WindowSize)
	}
	if c.MergeRadius <= 0 {
		c.MergeRadius = c.Lattice
	}
	if c.MinCredit <= 0 {
		c.MinCredit = 1
	}
	if c.Metrics != nil && c.Select.Hypothesis.Recovery.Metrics == nil {
		c.Select.Hypothesis.Recovery.Metrics = c.Metrics.Solver
	}
	return c, nil
}

// RoundResult reports one engine round for observability.
type RoundResult struct {
	// Round is the 1-based round index.
	Round int
	// WindowLen is the number of samples the round used.
	WindowLen int
	// Hypothesis is the winning model for this window. It is nil when the
	// window was unproductive (too little data or degenerate geometry); such
	// rounds contribute no estimates.
	Hypothesis *Hypothesis
}

// Engine is the online CS pipeline of Fig. 2: it ingests RSS readings while
// the vehicle drives, re-runs grid formation + CS recovery + BIC selection
// every StepSize samples over the last WindowSize samples, and consolidates
// the per-round estimates with credits.
type Engine struct {
	cfg       EngineConfig
	buf       []radio.Measurement
	sinceLast int
	round     int
	estimates []Estimate
	fixedGrid *grid.Grid // cached when cfg.Area is set
}

// NewEngine validates the configuration and returns an empty engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	c, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: c}
	if c.Area != nil {
		g, err := grid.FromRect(*c.Area, c.Lattice)
		if err != nil {
			return nil, err
		}
		e.fixedGrid = g
	}
	return e, nil
}

// Add ingests one measurement. When StepSize new samples have accumulated it
// runs a round and returns its result; otherwise it returns (nil, nil).
// Equivalent to AddContext with context.Background().
func (e *Engine) Add(m radio.Measurement) (*RoundResult, error) {
	return e.AddContext(context.Background(), m)
}

// AddContext ingests one measurement; a traced context puts any triggered
// round under a cs.round span.
func (e *Engine) AddContext(ctx context.Context, m radio.Measurement) (*RoundResult, error) {
	e.insert(m)
	e.expire(m.Time)
	e.sinceLast++
	if e.sinceLast < e.cfg.StepSize {
		return nil, nil
	}
	e.sinceLast = 0
	return e.runRound(ctx)
}

// insert appends m, keeping the buffer ordered by timestamp. Measurements
// usually arrive in time order, so the backward scan is O(1) amortized; a
// late, older-timestamped delivery sinks to its slot instead of landing at
// the tail, which keeps expire's front-of-buffer scan sound (a single stale
// straggler at the tail must not shield newer-but-expired samples behind it).
func (e *Engine) insert(m radio.Measurement) {
	e.buf = append(e.buf, m)
	for i := len(e.buf) - 1; i > 0 && e.buf[i].Time < e.buf[i-1].Time; i-- {
		e.buf[i], e.buf[i-1] = e.buf[i-1], e.buf[i]
	}
}

// AddBatch ingests a series of measurements, returning the results of all
// rounds triggered along the way. Equivalent to AddBatchContext with
// context.Background().
func (e *Engine) AddBatch(ms []radio.Measurement) ([]*RoundResult, error) {
	return e.AddBatchContext(context.Background(), ms)
}

// AddBatchContext ingests a series of measurements under ctx.
func (e *Engine) AddBatchContext(ctx context.Context, ms []radio.Measurement) ([]*RoundResult, error) {
	var out []*RoundResult
	for _, m := range ms {
		r, err := e.AddContext(ctx, m)
		if err != nil {
			return out, err
		}
		if r != nil {
			out = append(out, r)
		}
	}
	return out, nil
}

// Flush forces a round on the current window regardless of the step counter;
// use it when RSS collection is complete (Section 4.3.6). Equivalent to
// FlushContext with context.Background().
func (e *Engine) Flush() (*RoundResult, error) {
	return e.FlushContext(context.Background())
}

// FlushContext forces a round on the current window under ctx.
func (e *Engine) FlushContext(ctx context.Context) (*RoundResult, error) {
	e.sinceLast = 0
	return e.runRound(ctx)
}

// expire drops samples whose TTL elapsed relative to now. The buffer is kept
// time-ordered by insert, so stopping at the first non-expired measurement
// is exact: nothing behind it can be older.
func (e *Engine) expire(now float64) {
	if e.cfg.TTL <= 0 {
		return
	}
	cut := 0
	for cut < len(e.buf) && now-e.buf[cut].Time > e.cfg.TTL {
		cut++
	}
	if cut > 0 {
		e.buf = append([]radio.Measurement(nil), e.buf[cut:]...)
	}
}

func (e *Engine) runRound(ctx context.Context) (*RoundResult, error) {
	if len(e.buf) == 0 {
		return nil, ErrNoMeasurements
	}
	start := time.Now()
	window := e.buf
	if len(window) > e.cfg.WindowSize {
		window = window[len(window)-e.cfg.WindowSize:]
	}
	_, span := trace.Start(ctx, "cs.round")
	defer span.End()
	span.SetAttr("window_len", len(window))
	g := e.fixedGrid
	if g == nil {
		rps := make([]geo.Point, len(window))
		for i, m := range window {
			rps[i] = m.Pos
		}
		var err error
		g, err = grid.FromMeasurements(rps, e.cfg.Radius, e.cfg.Lattice)
		if err != nil {
			span.SetError(err)
			return nil, err
		}
	}
	e.round++
	span.SetAttr("round", e.round)
	h, err := SelectModelContext(ctx, g, e.cfg.Channel, window, e.cfg.Select)
	if err != nil {
		// A canceled or deadline-expired round is a real abort: the caller's
		// budget ran out mid-search, so surface it instead of reporting an
		// empty round.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			span.SetError(err)
			return nil, err
		}
		// An unproductive window (too little data, degenerate geometry) is
		// not an engine failure: report an empty round and keep driving.
		e.cfg.Metrics.observeRound(start, len(window), false)
		span.AddEvent("unproductive window: " + err.Error())
		return &RoundResult{Round: e.round, WindowLen: len(window)}, nil
	}
	merges := e.consolidate(h.APs)
	e.cfg.Metrics.observeRound(start, len(window), true)
	e.cfg.Metrics.observeConsolidation(merges)
	span.SetAttr("k", h.K)
	span.SetAttr("bic", h.BIC)
	span.SetAttr("loglik", h.LogLik)
	span.SetAttr("merges", merges)
	return &RoundResult{Round: e.round, WindowLen: len(window), Hypothesis: h}, nil
}

// consolidate implements credit-based consolidation (Section 4.3.6): each
// estimate from the winning hypothesis earns one credit; estimates aligning
// with a prior location merge, with the merged coordinate the credit-weighted
// centroid; new locations enter the set with one credit. It returns the
// total number of merges performed.
func (e *Engine) consolidate(aps []geo.Point) int {
	merges := 0
	for _, p := range aps {
		bestIdx, bestDist := -1, math.Inf(1)
		for i, est := range e.estimates {
			if d := est.Pos.Dist(p); d < bestDist {
				bestIdx, bestDist = i, d
			}
		}
		if bestIdx >= 0 && bestDist <= e.cfg.MergeRadius {
			est := &e.estimates[bestIdx]
			total := est.Credit + 1
			est.Pos = geo.Point{
				X: (est.Pos.X*est.Credit + p.X) / total,
				Y: (est.Pos.Y*est.Credit + p.Y) / total,
			}
			est.Credit = total
			est.LastSeen = e.round
			merges++
		} else {
			e.estimates = append(e.estimates, Estimate{
				Pos:       p,
				Credit:    1,
				FirstSeen: e.round,
				LastSeen:  e.round,
			})
		}
	}
	return merges + e.coalesce()
}

// coalesce repeatedly merges the closest estimate pair within MergeRadius,
// returning the number of merges. Greedy insert-time merging can leave
// chains of near-duplicates (a drifts toward b while c lands between them);
// this pass closes them. Candidate pairs come from a spatial hash with cell
// size MergeRadius — any pair within the radius lies in the same or an
// adjacent cell — so one pass costs O(n · neighbors) instead of the former
// O(n²) full-pair scan per merge, which degraded long drives cubically as
// the estimate set grew.
func (e *Engine) coalesce() int {
	merges := 0
	for {
		bi, bj := e.closestPairWithin(e.cfg.MergeRadius)
		if bi < 0 {
			return merges
		}
		a, b := e.estimates[bi], e.estimates[bj]
		total := a.Credit + b.Credit
		merged := Estimate{
			Pos: geo.Point{
				X: (a.Pos.X*a.Credit + b.Pos.X*b.Credit) / total,
				Y: (a.Pos.Y*a.Credit + b.Pos.Y*b.Credit) / total,
			},
			Credit:    total,
			FirstSeen: min(a.FirstSeen, b.FirstSeen),
			LastSeen:  max(a.LastSeen, b.LastSeen),
		}
		e.estimates[bi] = merged
		e.estimates = append(e.estimates[:bj], e.estimates[bj+1:]...)
		merges++
	}
}

// closestPairWithin returns the estimate pair with the smallest separation
// not exceeding r, ties broken by lowest (i, j) — the pair the former
// lexicographic full scan would have selected — or (-1, -1) when no pair
// qualifies. Small sets brute-force (the hash isn't worth building); larger
// sets bucket into an r-sized spatial hash and compare each estimate only
// against the 3×3 cell neighborhood that can hold a qualifying partner.
func (e *Engine) closestPairWithin(r float64) (int, int) {
	n := len(e.estimates)
	if n < 2 || r <= 0 {
		return -1, -1
	}
	bi, bj, bd := -1, -1, math.Inf(1)
	better := func(i, j int, d float64) bool {
		if d > r || d > bd {
			return false
		}
		if d < bd {
			return true
		}
		return i < bi || (i == bi && j < bj)
	}
	if n <= 24 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d := e.estimates[i].Pos.Dist(e.estimates[j].Pos); better(i, j, d) {
					bi, bj, bd = i, j, d
				}
			}
		}
		return bi, bj
	}
	type cell struct{ x, y int }
	buckets := make(map[cell][]int, n)
	key := func(p geo.Point) cell {
		return cell{int(math.Floor(p.X / r)), int(math.Floor(p.Y / r))}
	}
	for i, est := range e.estimates {
		k := key(est.Pos)
		buckets[k] = append(buckets[k], i)
	}
	for i, est := range e.estimates {
		k := key(est.Pos)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[cell{k.x + dx, k.y + dy}] {
					if j <= i {
						continue
					}
					if d := est.Pos.Dist(e.estimates[j].Pos); better(i, j, d) {
						bi, bj, bd = i, j, d
					}
				}
			}
		}
	}
	return bi, bj
}

// creditedEstimates returns the consolidated AP set with spurious entries
// (credit ≤ MinCredit) filtered out, ordered by descending credit: the
// paper's filter of estimates with exactly one credit, before
// FinalEstimates' prune. MinCredit defaults accordingly.
func (e *Engine) creditedEstimates() []Estimate {
	out := make([]Estimate, 0, len(e.estimates))
	for _, est := range e.estimates {
		if est.Credit > e.cfg.MinCredit {
			out = append(out, est)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Credit > out[j].Credit })
	return out
}

// allEstimates returns every consolidated estimate, including spurious ones,
// ordered by descending credit.
func (e *Engine) allEstimates() []Estimate {
	out := make([]Estimate, len(e.estimates))
	copy(out, e.estimates)
	sort.Slice(out, func(i, j int) bool { return out[i].Credit > out[j].Credit })
	return out
}

// FinalEstimates runs the paper's "reality check" on the consolidated set:
// starting from every estimate that survives the credit filter (credit >
// MinCredit, by default the paper's spurious-estimate rule of more than one
// vote), it greedily removes the estimate whose removal most improves the BIC
// of the full measurement history, until no removal helps. Mirror phantoms
// from straight driving segments are the main casualty: the true estimate
// explains the phantom's readings equally well (symmetric distances), so
// dropping the phantom costs no likelihood and saves the 2-parameter BIC
// penalty.
func (e *Engine) FinalEstimates() []Estimate {
	cands := make([]Estimate, 0, len(e.estimates))
	for _, est := range e.estimates {
		if est.Credit > e.cfg.MinCredit {
			cands = append(cands, est)
		}
	}
	if len(cands) <= 1 || len(e.buf) == 0 {
		sort.Slice(cands, func(i, j int) bool { return cands[i].Credit > cands[j].Credit })
		return cands
	}
	gmm := e.cfg.Select.Hypothesis.GMM
	if gmm.Channel == (radio.Channel{}) {
		gmm.Channel = e.cfg.Channel
	}
	bic := func(set []Estimate) float64 {
		pts := make([]geo.Point, len(set))
		for i, est := range set {
			pts[i] = est.Pos
		}
		ll := gmm.LogLikelihood(e.buf, pts)
		return radio.BIC(ll, len(set), len(e.buf))
	}
	cur := bic(cands)
	for len(cands) > 1 {
		bestIdx := -1
		bestBIC := cur
		for i := range cands {
			trial := make([]Estimate, 0, len(cands)-1)
			trial = append(trial, cands[:i]...)
			trial = append(trial, cands[i+1:]...)
			if b := bic(trial); b > bestBIC {
				bestBIC, bestIdx = b, i
			}
		}
		if bestIdx < 0 {
			break
		}
		cands = append(cands[:bestIdx], cands[bestIdx+1:]...)
		cur = bestBIC
	}
	// Polish each survivor against the full history: measurements near an
	// estimate (and closer to it than to any other survivor) form its support
	// group, and the position is refined by local likelihood maximization.
	for i := range cands {
		var group []radio.Measurement
		for _, m := range e.buf {
			d := m.Pos.Dist(cands[i].Pos)
			if d > e.cfg.Radius {
				continue
			}
			closest := true
			for j := range cands {
				if j != i && m.Pos.Dist(cands[j].Pos) < d {
					closest = false
					break
				}
			}
			if closest {
				group = append(group, m)
			}
		}
		if len(group) >= 3 {
			refined, _ := refineLocal(cands[i].Pos, group, 2*e.cfg.Lattice, gmm)
			// Robust pass: drop the worst-explained fifth of the support
			// (readings misattributed from neighbouring APs) and re-polish.
			if len(group) >= 5 {
				// Each reading is scored once, before the sort. sort.Slice's
				// permutation depends only on the outcomes of its comparisons,
				// which are the same as when each comparison scored both sides.
				byFit := make([]scoredReading, len(group))
				for j := range group {
					byFit[j] = scoredReading{group[j], groupLogLik(refined, group[j:j+1], gmm)}
				}
				sort.Slice(byFit, func(a, b int) bool { return byFit[a].ll > byFit[b].ll })
				trimmed := make([]radio.Measurement, len(group)*4/5)
				for j := range trimmed {
					trimmed[j] = byFit[j].m
				}
				refined, _ = refineLocal(refined, trimmed, e.cfg.Lattice, gmm)
			}
			cands[i].Pos = refined
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Credit > cands[j].Credit })
	return cands
}

// scoredReading is a reading with its log-likelihood under one AP.
type scoredReading struct {
	m  radio.Measurement
	ll float64
}
