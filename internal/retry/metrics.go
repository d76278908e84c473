package retry

import "crowdwifi/internal/obs"

// Metrics instruments the retry layer.
type Metrics struct {
	reg           *obs.Registry
	retries       *obs.Counter
	exhausted     *obs.Counter
	budgetDenied  *obs.Counter
	breakerDenied *obs.Counter
	toOpen        *obs.Counter
	toHalfOpen    *obs.Counter
	toClosed      *obs.Counter
}

// NewMetrics registers the retry/breaker series on reg.
func NewMetrics(reg *obs.Registry) Metrics {
	transHelp := "Circuit breaker state transitions, by destination state."
	return Metrics{
		reg:           reg,
		retries:       reg.Counter("crowdwifi_retry_retries_total", "HTTP request retries issued after a retryable failure."),
		exhausted:     reg.Counter("crowdwifi_retry_exhausted_total", "Requests that failed after exhausting every retry attempt."),
		budgetDenied:  reg.Counter("crowdwifi_retry_budget_denied_total", "Retries suppressed because the per-endpoint retry budget was empty."),
		breakerDenied: reg.Counter("crowdwifi_breaker_denied_total", "Requests fast-failed by an open circuit breaker."),
		toOpen:        reg.Counter("crowdwifi_breaker_transitions_total", transHelp, obs.L("to", "open")),
		toHalfOpen:    reg.Counter("crowdwifi_breaker_transitions_total", transHelp, obs.L("to", "half_open")),
		toClosed:      reg.Counter("crowdwifi_breaker_transitions_total", transHelp, obs.L("to", "closed")),
	}
}

// CountTransition is an OnStateChange callback that counts transitions. A
// process with a breaker per peer wires it to each: one unlabelled state
// gauge cannot say whose breaker it is.
func (m Metrics) CountTransition(_, to State) {
	switch to {
	case Open:
		m.toOpen.Inc()
	case HalfOpen:
		m.toHalfOpen.Inc()
	case Closed:
		m.toClosed.Inc()
	}
}

// BreakerHook returns an OnStateChange callback for a process's one
// breaker: it counts transitions and mirrors the current state into the
// crowdwifi_breaker_state gauge, which it registers.
func (m Metrics) BreakerHook() func(from, to State) {
	state := m.reg.Gauge("crowdwifi_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open.")
	return func(from, to State) {
		state.Set(float64(to))
		m.CountTransition(from, to)
	}
}
