package api

// The /v1 routes. Both tiers mount them, clients request them and the
// rebalance machinery calls them by these names, so a route is spelled once.
const (
	RoutePatterns     = "/v1/patterns"
	RouteTasks        = "/v1/tasks"
	RouteLabels       = "/v1/labels"
	RouteReports      = "/v1/reports"
	RouteReportsBatch = "/v1/reports/batch"
	RouteAggregate    = "/v1/aggregate"
	RouteLookup       = "/v1/lookup"
	RouteReliability  = "/v1/reliability"

	// Control routes (cluster.go) of a shard booted into a cluster; the
	// router serves RouteClusterMembers too.
	RouteClusterDigest  = "/v1/cluster/digest"
	RouteClusterSlice   = "/v1/cluster/slice"
	RouteClusterDrop    = "/v1/cluster/drop"
	RouteClusterMembers = "/v1/cluster/members"
)
