package crowd

import "crowdwifi/internal/obs"

// Metrics instruments the iterative reliability inference: message-passing
// sweeps to convergence and run outcomes. A nil *Metrics is a no-op.
type Metrics struct {
	sweepsPerRun  *obs.Histogram
	runsConverged *obs.Counter
	runsDiverged  *obs.Counter
}

// NewMetrics registers the crowd-inference series on reg. Returns nil for a
// nil registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		sweepsPerRun:  reg.Histogram("crowdwifi_crowd_inference_sweeps", "Message-passing sweeps to convergence per inference run.", []float64{1, 2, 5, 10, 20, 50, 100}),
		runsConverged: reg.Counter("crowdwifi_crowd_inference_runs_total", "Completed inference runs by outcome.", obs.L("outcome", "converged")),
		runsDiverged:  reg.Counter("crowdwifi_crowd_inference_runs_total", "Completed inference runs by outcome.", obs.L("outcome", "diverged")),
	}
}

func (m *Metrics) record(res *InferenceResult) {
	if m == nil || res == nil {
		return
	}
	m.sweepsPerRun.Observe(float64(res.Iterations))
	if res.Converged {
		m.runsConverged.Inc()
	} else {
		m.runsDiverged.Inc()
	}
}
