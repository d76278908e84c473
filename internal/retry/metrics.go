package retry

import "crowdwifi/internal/obs"

// Metrics instruments the retry layer.
type Metrics struct {
	retries       *obs.Counter
	exhausted     *obs.Counter
	budgetDenied  *obs.Counter
	breakerDenied *obs.Counter
	breakerState  *obs.Gauge
	toOpen        *obs.Counter
	toHalfOpen    *obs.Counter
	toClosed      *obs.Counter
}

// NewMetrics registers the retry/breaker series on reg.
func NewMetrics(reg *obs.Registry) Metrics {
	transHelp := "Circuit breaker state transitions, by destination state."
	return Metrics{
		retries:       reg.Counter("crowdwifi_retry_retries_total", "HTTP request retries issued after a retryable failure."),
		exhausted:     reg.Counter("crowdwifi_retry_exhausted_total", "Requests that failed after exhausting every retry attempt."),
		budgetDenied:  reg.Counter("crowdwifi_retry_budget_denied_total", "Retries suppressed because the per-endpoint retry budget was empty."),
		breakerDenied: reg.Counter("crowdwifi_breaker_denied_total", "Requests fast-failed by an open circuit breaker."),
		breakerState:  reg.Gauge("crowdwifi_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open."),
		toOpen:        reg.Counter("crowdwifi_breaker_transitions_total", transHelp, obs.L("to", "open")),
		toHalfOpen:    reg.Counter("crowdwifi_breaker_transitions_total", transHelp, obs.L("to", "half_open")),
		toClosed:      reg.Counter("crowdwifi_breaker_transitions_total", transHelp, obs.L("to", "closed")),
	}
}

// BreakerHook returns an OnStateChange callback that records transitions and
// mirrors the current state into a gauge.
func (m Metrics) BreakerHook() func(from, to State) {
	return func(_, to State) {
		m.breakerState.Set(float64(to))
		switch to {
		case Open:
			m.toOpen.Inc()
		case HalfOpen:
			m.toHalfOpen.Inc()
		case Closed:
			m.toClosed.Inc()
		}
	}
}
