package cluster

import (
	"sync"

	"crowdwifi/internal/obs"
)

// routerMetrics is the per-shard cluster view: upstream outcomes by shard and
// a numeric last-seen mode gauge per shard so one Prometheus query shows which
// slice of the world is degraded. Without a registry its series are nil
// no-ops, but it still keeps the last-seen modes /debug/cluster shows.
type routerMetrics struct {
	registry *obs.Registry

	mu        sync.Mutex
	shardMode map[string]*obs.Gauge
	modes     map[string]string // shard id → last-seen mode string

	partial    *obs.Counter
	rerouted   *obs.Counter
	shed       *obs.Counter
	upstreamOK *obs.Counter
}

// modeValue maps a shard's X-Crowdwifi-Mode string to the gauge encoding:
// healthy 0, read-only 2, recovering 3, unknown/unseen -1.
func modeValue(mode string) float64 {
	switch mode {
	case "healthy":
		return 0
	case "read-only":
		return 2
	case "recovering":
		return 3
	}
	return -1
}

func newRouterMetrics(reg *obs.Registry) *routerMetrics {
	return &routerMetrics{
		registry:  reg,
		shardMode: map[string]*obs.Gauge{},
		modes:     map[string]string{},
		partial: reg.Counter("crowdwifi_router_partial_lookups_total",
			"Scatter-gather lookups answered without every shard (X-Crowdwifi-Partial set)."),
		rerouted: reg.Counter("crowdwifi_router_rerouted_total",
			"Uploads re-routed after a shard answered 421 Misdirected Request."),
		shed: reg.Counter("crowdwifi_router_shed_requests_total",
			"Requests shed by the router's own admission control."),
		upstreamOK: reg.Counter("crowdwifi_router_upstream_requests_total",
			"Upstream shard requests that returned a response."),
	}
}

// modesSnapshot copies the last-seen per-shard mode strings (empty map when
// no upstream exchange has happened yet).
func (m *routerMetrics) modesSnapshot() map[string]string {
	out := map[string]string{}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.modes {
		out[k] = v
	}
	return out
}

// observeShard records one upstream exchange with a shard: the last-seen
// mode gauge and error accounting.
func (m *routerMetrics) observeShard(shard, mode string, err error) {
	if err != nil {
		m.registry.Counter("crowdwifi_router_upstream_errors_total",
			"Upstream shard requests that failed at the transport layer, by shard.",
			obs.L("shard", shard)).Inc()
		mode = "unreachable"
	} else {
		m.upstreamOK.Inc()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if mode != "" {
		m.modes[shard] = mode
	}
	g, ok := m.shardMode[shard]
	if !ok {
		g = m.registry.Gauge("crowdwifi_router_shard_mode",
			"Last-seen shard mode: 0 healthy, 2 read-only, 3 recovering, -1 unknown/unreachable.",
			obs.L("shard", shard))
		m.shardMode[shard] = g
	}
	if mode != "" {
		g.Set(modeValue(mode))
	}
}
