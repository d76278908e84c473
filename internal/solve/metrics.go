package solve

import "crowdwifi/internal/obs"

// Metrics records BPDN outcomes: converged/diverged run counts and
// iterations-to-converge. A nil *Metrics is a no-op, so BPDN records
// unconditionally.
type Metrics struct {
	converged *obs.Counter
	diverged  *obs.Counter
	iterHist  *obs.Histogram
}

// NewMetrics registers the solver series on reg, eagerly, so exposition
// carries every series (at zero) from process start. Returns nil for a nil
// registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	sl := obs.L("solver", "bpdn")
	return &Metrics{
		converged: reg.Counter("crowdwifi_solver_runs_total", "Completed solver runs by outcome.", sl, obs.L("outcome", "converged")),
		diverged:  reg.Counter("crowdwifi_solver_runs_total", "Completed solver runs by outcome.", sl, obs.L("outcome", "diverged")),
		iterHist:  reg.Histogram("crowdwifi_solver_iterations", "Iterations-to-converge per solver run.", []float64{1, 2, 5, 10, 25, 50, 100, 200, 400, 800}, sl),
	}
}

// record stores one BPDN outcome and hands the result back.
func (m *Metrics) record(res *Result) *Result {
	if m == nil {
		return res
	}
	if res.Converged {
		m.converged.Inc()
	} else {
		m.diverged.Inc()
	}
	m.iterHist.Observe(float64(res.Iterations))
	return res
}
