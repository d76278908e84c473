package server

import (
	"crowdwifi/internal/crowd"
	"crowdwifi/internal/obs"
)

// Metrics instruments the crowd-server: ingest volume and the aggregation
// pipeline (reliability inference + fusion).
type Metrics struct {
	registry *obs.Registry

	// Crowd carries the reliability-inference series shared with
	// internal/crowd; Store.Aggregate threads it into Infer.
	Crowd *crowd.Metrics

	reports         *obs.Counter
	labels          *obs.Counter
	patterns        *obs.Counter
	deduped         *obs.Counter
	shed            *obs.Counter
	bodyLimited     *obs.Counter
	aggregateCycles *obs.Counter
	aggregateErrors *obs.Counter
	aggregateDur    *obs.Histogram
	fusedAPs        *obs.Gauge
	vehiclesScored  *obs.Gauge
	spammersFlagged *obs.Gauge
	relMean         *obs.Gauge
}

// NewMetrics registers the crowd-server series on reg.
func NewMetrics(reg *obs.Registry) Metrics {
	return Metrics{
		registry:        reg,
		Crowd:           crowd.NewMetrics(reg),
		reports:         reg.Counter("crowdwifi_server_reports_total", "Vehicle AP reports accepted."),
		labels:          reg.Counter("crowdwifi_server_labels_total", "Mapping-task labels accepted."),
		patterns:        reg.Counter("crowdwifi_server_patterns_total", "Mapping tasks (patterns) registered."),
		deduped:         reg.Counter("crowdwifi_server_deduped_requests_total", "Duplicate ingestion requests answered from the idempotency cache."),
		shed:            reg.Counter("crowdwifi_server_shed_requests_total", "Ingestion requests shed with 503 + Retry-After."),
		bodyLimited:     reg.Counter("crowdwifi_server_body_limit_rejections_total", "Ingestion requests rejected for exceeding the body size cap."),
		aggregateCycles: reg.Counter("crowdwifi_server_aggregate_cycles_total", "Completed aggregation cycles (reliability inference + fusion)."),
		aggregateErrors: reg.Counter("crowdwifi_server_aggregate_errors_total", "Aggregation cycles that failed."),
		aggregateDur:    reg.Histogram("crowdwifi_server_aggregate_duration_seconds", "Duration of one aggregation cycle.", nil),
		fusedAPs:        reg.Gauge("crowdwifi_server_fused_aps", "Fused APs across all segments after the last aggregation."),
		vehiclesScored:  reg.Gauge("crowdwifi_server_vehicles_scored", "Vehicles assigned a reliability score in the last aggregation."),
		spammersFlagged: reg.Gauge("crowdwifi_server_spammers_flagged", "Vehicles with normalized reliability below 0.5 in the last aggregation."),
		relMean:         reg.Gauge("crowdwifi_server_reliability_mean", "Mean normalized vehicle reliability."),
	}
}

// observeAggregate records one aggregation cycle's outcome.
func (m *Metrics) observeAggregate(stats CycleStats, reliability map[string]float64, err error) {
	if err != nil {
		m.aggregateErrors.Inc()
		return
	}
	m.aggregateCycles.Inc()
	m.aggregateDur.Observe(stats.Duration.Seconds())
	m.fusedAPs.Set(float64(stats.FusedAPs))
	m.vehiclesScored.Set(float64(stats.VehiclesScored))
	m.spammersFlagged.Set(float64(stats.SpammersFlagged))
	if len(reliability) > 0 {
		sum := 0.0
		for _, r := range reliability {
			sum += r
		}
		m.relMean.Set(sum / float64(len(reliability)))
	}
}
