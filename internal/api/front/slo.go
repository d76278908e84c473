package front

import (
	"strconv"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/slo"
)

// SLOObjectives returns the user-facing promises both tiers make, evaluated
// from the RED families a Stack with the same Metrics prefix records:
//
//   - upload availability: 99.9% of /v1/reports + /v1/patterns answers are
//     non-5xx. 5xx (including 503 sheds) are bad; 4xx are the client's fault
//     and don't burn the budget (a 421 re-route is the cluster working as
//     designed).
//   - lookup latency: 99% of /v1/lookup requests complete within 500 ms — an
//     exact DefBuckets bound, so the objective reads cumulative bucket counts
//     with no interpolation error.
//
// scope words the descriptions ("routed " at the router, whose objectives
// are measured at the cluster front door: a shard outage the router absorbs
// doesn't burn budget while an outage the client sees does).
func SLOObjectives(reg *obs.Registry, metrics, scope string) []slo.Objective {
	goodCode := func(labels map[string]string) bool {
		code, err := strconv.Atoi(labels["code"])
		return err == nil && code < 500
	}
	uploadRoute := func(labels map[string]string) bool {
		r := labels["route"]
		return r == api.RouteReports || r == api.RoutePatterns
	}
	lookupRoute := func(labels map[string]string) bool {
		return labels["route"] == api.RouteLookup
	}
	return []slo.Objective{
		{
			Name:        "upload-availability",
			Description: "99.9% of " + scope + "upload requests succeed (non-5xx)",
			Target:      0.999,
			Source:      slo.CounterRatio(reg, metrics+"_requests_total", uploadRoute, goodCode),
		},
		{
			Name:        "lookup-latency",
			Description: "99% of " + scope + "lookups complete within 500ms",
			Target:      0.99,
			Source:      slo.LatencyUnder(reg, metrics+"_request_duration_seconds", lookupRoute, 0.5),
		},
	}
}
