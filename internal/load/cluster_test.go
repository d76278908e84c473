package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cluster"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/slo"
	"crowdwifi/internal/server"
)

// TestRunAgainstRouterFrontedCluster drives the fleet at a router fronting
// two shards and scrapes both shards for the server-side report section.
// The books must still balance: nothing lost, and the acked-upload count
// must equal the reports counter summed across the shards — which is the
// whole point of Config.ScrapeURLs. The router carries an SLO engine and
// stamps the shard header, so the report's shard breakdown and SLO verdict
// sections must come back populated too.
func TestRunAgainstRouterFrontedCluster(t *testing.T) {
	members := []string{"a", "b"}
	shards := make(map[string]*httptest.Server, len(members))
	for _, id := range members {
		reg := obs.NewRegistry()
		srv := server.New(server.NewStore(8),
			server.WithMetrics(server.NewMetrics(reg)),
			server.WithCluster(server.ClusterOptions{Self: id, Members: members}))
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		shards[id] = ts
	}

	routerReg := obs.NewRegistry()
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Peers: []cluster.Peer{
			{ID: "a", URL: shards["a"].URL},
			{ID: "b", URL: shards["b"].URL},
		},
		Registry: routerReg,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	engine := slo.New(slo.Config{Objectives: cluster.SLOObjectives(routerReg), Registry: routerReg})
	mux := http.NewServeMux()
	mux.Handle("/", rt)
	mux.Handle("/debug/slo", engine.Handler())
	router := httptest.NewServer(mux)
	t.Cleanup(router.Close)

	r, err := NewRunner(Config{
		ServerURL:   router.URL,
		ScrapeURLs:  []string{shards["a"].URL, shards["b"].URL},
		Vehicles:    8,
		Warmup:      100 * time.Millisecond,
		Measure:     400 * time.Millisecond,
		Drain:       5 * time.Second,
		Think:       2 * time.Millisecond,
		LookupEvery: 4,
		Archetypes:  4,
		LogEvery:    -1,
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if upl := rep.Endpoints[EndpointUpload]; upl.OK == 0 {
		t.Fatalf("no successful uploads through the router: %+v", upl)
	}
	if look := rep.Endpoints[EndpointLookup]; look.OK == 0 {
		t.Fatalf("no successful scatter-gather lookups: %+v", look)
	}
	if rep.Resilience.Lost != 0 {
		t.Fatalf("lost %d reports behind the router: %+v", rep.Resilience.Lost, rep.Resilience)
	}
	if !rep.Server.Available {
		t.Fatal("multi-shard scrape unavailable; shard /debug/vars or /metrics broke")
	}
	if !rep.Verification.ServerSideAvailable {
		t.Fatalf("server-side verification unavailable: %+v", rep.Verification)
	}
	if !rep.Verification.Consistent {
		t.Fatalf("acked uploads do not match the summed shard counters: %+v", rep.Verification)
	}
	if rep.Verification.AckedUploads == 0 {
		t.Fatal("no uploads acknowledged over the whole run")
	}

	if len(rep.Shards) == 0 {
		t.Fatalf("no per-shard latency breakdown captured from %s headers", api.ShardHeader)
	}
	for id, sh := range rep.Shards {
		if sh.Requests == 0 {
			t.Errorf("shard %s breakdown has zero requests", id)
		}
	}

	if !rep.SLO.Available {
		t.Fatal("SLO verdicts unavailable despite /debug/slo on the router")
	}
	if len(rep.SLO.Objectives) != 2 {
		t.Fatalf("SLO verdicts = %+v, want 2 objectives", rep.SLO.Objectives)
	}
	if !rep.SLO.Healthy {
		t.Fatalf("SLO unhealthy over a clean run: %+v", rep.SLO.Objectives)
	}
}
