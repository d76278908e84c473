package client

import (
	"time"

	"crowdwifi/internal/obs"
)

// Metrics instruments vehicle-side HTTP traffic to the crowd-server and the
// store-and-forward outbox. Latency is captured in one histogram series per
// endpoint path.
type Metrics struct {
	registry    *obs.Registry
	requestsOK  *obs.Counter
	requestsErr *obs.Counter

	outboxEnqueued *obs.Counter
	outboxDrained  *obs.Counter
	outboxDropped  *obs.Counter
	outboxEvicted  *obs.Counter
	outboxDepth    *obs.Gauge
}

// NewMetrics registers the client series on reg.
func NewMetrics(reg *obs.Registry) Metrics {
	help := "Requests issued to the crowd-server, by outcome."
	dropped := "Outbox entries abandoned, by reason: a terminal answer, or evicted by a full outbox."
	return Metrics{
		registry:       reg,
		requestsOK:     reg.Counter("crowdwifi_client_requests_total", help, obs.L("outcome", "ok")),
		requestsErr:    reg.Counter("crowdwifi_client_requests_total", help, obs.L("outcome", "error")),
		outboxEnqueued: reg.Counter("crowdwifi_client_outbox_enqueued_total", "Uploads parked in the store-and-forward outbox after delivery failure."),
		outboxDrained:  reg.Counter("crowdwifi_client_outbox_drained_total", "Outbox entries delivered on a later contact window."),
		outboxDropped:  reg.Counter("crowdwifi_client_outbox_dropped_total", dropped, obs.L("reason", "terminal")),
		outboxEvicted:  reg.Counter("crowdwifi_client_outbox_dropped_total", dropped, obs.L("reason", "evicted")),
		outboxDepth:    reg.Gauge("crowdwifi_client_outbox_depth", "Uploads currently waiting in the outbox."),
	}
}

// observe records one completed request round trip against its endpoint.
func (m *Metrics) observe(path string, start time.Time, err error) {
	// Paths are a small fixed set (/v1/...), so cardinality stays bounded.
	m.registry.Histogram("crowdwifi_client_request_duration_seconds",
		"End-to-end client-observed latency of crowd-server requests, by endpoint path.",
		nil, obs.L("path", path)).Observe(time.Since(start).Seconds())
	if err != nil {
		m.requestsErr.Inc()
	} else {
		m.requestsOK.Inc()
	}
}
