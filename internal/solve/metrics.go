package solve

import "crowdwifi/internal/obs"

// solverNames lists every recovery program so NewMetrics can register the
// full per-solver series catalog eagerly — exposition then carries every
// series (at zero) from process start, which keeps dashboards stable.
var solverNames = []string{"basis_pursuit", "bpdn", "fista", "ista", "omp", "irls"}

type solverSeries struct {
	converged  *obs.Counter
	diverged   *obs.Counter
	iterations *obs.Counter
	iterHist   *obs.Histogram
}

// Metrics records per-solver outcomes: converged/diverged run counts and
// iterations-to-converge. A nil *Metrics is a no-op, so solvers can record unconditionally.
type Metrics struct {
	series map[string]*solverSeries
}

// NewMetrics registers the solver series on reg. Returns nil for a nil
// registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{series: make(map[string]*solverSeries, len(solverNames))}
	iterBuckets := []float64{1, 2, 5, 10, 25, 50, 100, 200, 400, 800}
	for _, name := range solverNames {
		sl := obs.L("solver", name)
		m.series[name] = &solverSeries{
			converged:  reg.Counter("crowdwifi_solver_runs_total", "Completed solver runs by outcome.", sl, obs.L("outcome", "converged")),
			diverged:   reg.Counter("crowdwifi_solver_runs_total", "Completed solver runs by outcome.", sl, obs.L("outcome", "diverged")),
			iterations: reg.Counter("crowdwifi_solver_iterations_total", "Total solver iterations performed.", sl),
			iterHist:   reg.Histogram("crowdwifi_solver_iterations", "Iterations-to-converge per solver run.", iterBuckets, sl),
		}
	}
	return m
}

// Record stores one solver outcome under the given solver name (one of
// basis_pursuit, bpdn, fista, ista, omp, irls).
func (m *Metrics) Record(solver string, res *Result) {
	if m == nil || res == nil {
		return
	}
	s := m.series[solver]
	if s == nil {
		return
	}
	if res.Converged {
		s.converged.Inc()
	} else {
		s.diverged.Inc()
	}
	s.iterations.Add(uint64(res.Iterations))
	s.iterHist.Observe(float64(res.Iterations))
}

// record is the Options-level hook used by the iterative solvers.
func (o Options) record(solver string, res *Result) *Result {
	o.Metrics.Record(solver, res)
	return res
}
