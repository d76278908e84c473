package cs

import (
	"sync/atomic"
	"time"

	"crowdwifi/internal/obs"
	"crowdwifi/internal/solve"
)

// Metrics instruments the online CS pipeline: round latency, window
// occupancy, consolidation merges, and (through Solver) the
// underlying ℓ1 programs. A nil *Metrics is a no-op.
type Metrics struct {
	// Solver carries the per-solver series shared with internal/solve.
	Solver *solve.Metrics

	roundDuration    *obs.Histogram
	roundsProductive *obs.Counter
	roundsEmpty      *obs.Counter
	windowSamples    *obs.Gauge
	merges           *obs.Counter
}

// NewMetrics registers the online-CS series (and the solver series) on reg.
// Returns nil for a nil registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Solver:           solve.NewMetrics(reg),
		roundDuration:    reg.Histogram("crowdwifi_cs_round_duration_seconds", "Latency of one online-CS round (grid formation, recovery, BIC selection, consolidation).", nil),
		roundsProductive: reg.Counter("crowdwifi_cs_rounds_total", "Completed online-CS rounds by outcome.", obs.L("outcome", "productive")),
		roundsEmpty:      reg.Counter("crowdwifi_cs_rounds_total", "Completed online-CS rounds by outcome.", obs.L("outcome", "empty")),
		windowSamples:    reg.Gauge("crowdwifi_cs_window_samples", "Samples in the sliding window of the most recent round."),
		merges:           reg.Counter("crowdwifi_cs_consolidation_merges_total", "Estimate merges performed during credit consolidation."),
	}
}

// observeRound records the outcome of one engine round.
func (m *Metrics) observeRound(start time.Time, windowLen int, productive bool) {
	if m == nil {
		return
	}
	m.roundDuration.Observe(time.Since(start).Seconds())
	m.windowSamples.Set(float64(windowLen))
	if productive {
		m.roundsProductive.Inc()
	} else {
		m.roundsEmpty.Inc()
	}
}

// observeConsolidation records the merge count of a consolidation pass.
func (m *Metrics) observeConsolidation(merges int) {
	if m != nil && merges > 0 {
		m.merges.Add(uint64(merges))
	}
}

// tally, when non-nil, counts the distinct work model selection and the
// reality check do; the package's count tests set it while they drive an
// engine, and nothing else does. It is read once per refineLocal call, once
// per sensing matrix built and once per ℓ1 solve.
var tally *workTally

type workTally struct {
	scored  atomic.Int64 // refineLocal candidates scored, the start point not counted
	terms   atomic.Int64 // likelihood terms refineLocal evaluated, the start point's too
	entries atomic.Int64 // sensing-matrix entries computed
	passes  atomic.Int64 // ADMM iterations that made a pass over every grid point
}
