package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/api/front"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/server"
)

// obsShard is an e2eShard carrying the full observability surface: a metrics
// registry, a record-everything tracer, and its own /debug/traces.
type obsShard struct {
	id    string
	store *server.Store
	ts    *httptest.Server
}

func newObsShard(t *testing.T, id string, members []string) *obsShard {
	t.Helper()
	store, _, err := server.OpenStore(e2eRadius, server.StorageOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", id, err)
	}
	reg := obs.NewRegistry()
	srv := server.New(store,
		server.WithCluster(server.ClusterOptions{Self: id, Members: members}),
		server.WithMetrics(server.NewMetrics(reg)),
		server.WithTracer(trace.NewTracer(trace.Config{SampleRate: 1})))
	sh := &obsShard{id: id, store: store, ts: httptest.NewServer(srv)}
	t.Cleanup(func() {
		sh.ts.Close()
		_ = sh.store.Close()
	})
	return sh
}

// newObsRouter boots a router wired the way cmd/crowdwifi-router wires it:
// tracing middleware and the router's DebugHandler over its registry.
func newObsRouter(t *testing.T, shards ...*obsShard) (*Router, *httptest.Server) {
	t.Helper()
	var peers []Peer
	for _, sh := range shards {
		peers = append(peers, Peer{ID: sh.id, URL: sh.ts.URL})
	}
	reg := obs.NewRegistry()
	tracer := trace.NewTracer(trace.Config{SampleRate: 1})
	rt, err := NewRouter(RouterOptions{Peers: peers, Retry: fastPolicy(), Registry: reg})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", rt)
	front.ServeDebug(mux, rt.DebugHandler(tracer.Store(), obs.NewHealth()))
	ts := httptest.NewServer(WithTracer(tracer, mux))
	t.Cleanup(ts.Close)
	return rt, ts
}

// segOwnedBy finds a segment the ring assigns to the wanted shard.
func segOwnedBy(t *testing.T, members []string, owner string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		seg := fmt.Sprintf("obs-seg-%03d", i)
		if ringOwner(t, members, seg) == owner {
			return seg
		}
	}
	t.Fatalf("no segment owned by %s in 1000 candidates", owner)
	return ""
}

// postTracedReport uploads one report with a caller-chosen trace id, so the
// test knows which trace to fetch from each process without parsing state.
func postTracedReport(t *testing.T, base string, rep api.Report, key, traceID string) *http.Response {
	t.Helper()
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/reports", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.IdempotencyKeyHeader, key)
	req.Header.Set(trace.Header, "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	return resp
}

// fetchTrace reads one process's spans of a trace from its /debug/traces.
func fetchTrace(t *testing.T, base, id string) trace.TraceData {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces/" + id)
	if err != nil {
		t.Fatalf("fetch trace: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch trace from %s: status %d: %s", base, resp.StatusCode, body)
	}
	var td trace.TraceData
	if err := json.Unmarshal(body, &td); err != nil {
		t.Fatalf("decode trace: %v: %s", err, body)
	}
	return td
}

// traceStatus is the status a process's /debug/traces/{id} answers.
func traceStatus(t *testing.T, base, id string) int {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces/" + id)
	if err != nil {
		t.Fatalf("fetch trace: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// spanIDs returns the ids of a trace's spans with the given name.
func spanIDs(td trace.TraceData, name string) []string {
	var out []string
	for _, sp := range td.Spans {
		if sp.Name == name {
			out = append(out, sp.SpanID)
		}
	}
	return out
}

// serverSpanParent checks that a shard's trace holds the server span of an
// upload continued over the wire, and returns the span id it names as its
// parent.
func serverSpanParent(t *testing.T, shard string, td trace.TraceData) string {
	t.Helper()
	for _, sp := range td.Spans {
		if sp.Name != "server POST /v1/reports" {
			continue
		}
		if !sp.Remote || sp.ParentID == "" {
			t.Fatalf("shard %s: server span has remoteParent %v, parentId %q; want a remote parent", shard, sp.Remote, sp.ParentID)
		}
		return sp.ParentID
	}
	t.Fatalf("shard %s holds no server POST /v1/reports span; spans: %v", shard, names(td))
	return ""
}

// spanAttr returns the value of a string attribute on the first span with
// the given name, and whether such a span exists.
func spanAttr(td trace.TraceData, spanName, key string) (string, bool) {
	for _, sp := range td.Spans {
		if sp.Name != spanName {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				if s, ok := a.Value.(string); ok {
					return s, true
				}
			}
		}
		return "", true
	}
	return "", false
}

func countSpans(td trace.TraceData, name string) int {
	n := 0
	for _, sp := range td.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestThreeShardAssembledTraceThroughRouter: one upload through the router
// leaves one trace in two processes, each serving its own part. The router
// holds the front-door span and its retry.attempt; the owning shard holds
// its handler, dedupe and store spans, and its server span names that
// router attempt as its remote parent — the traceparent link a reader
// follows from one process to the next. The other shards hold nothing.
func TestThreeShardAssembledTraceThroughRouter(t *testing.T) {
	members := []string{"a", "b", "c"}
	a := newObsShard(t, "a", members)
	b := newObsShard(t, "b", members)
	c := newObsShard(t, "c", members)
	_, routerTS := newObsRouter(t, a, b, c)

	seg := segOwnedBy(t, members, "a")
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	resp := postTracedReport(t, routerTS.URL, api.Report{
		Vehicle: "veh-obs",
		Segment: seg,
		APs:     []api.APReport{{X: 1, Y: 2, Credit: 3}},
	}, "obs-trace-1", traceID)
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, respBody)
	}
	if got := resp.Header.Get(api.ShardHeader); got != "a" {
		t.Fatalf("%s = %q, want %q", api.ShardHeader, got, "a")
	}

	// The router's part: the front-door span, carrying the owning shard,
	// and the attempt that carried the request to it.
	rtd := fetchTrace(t, routerTS.URL, traceID)
	if rtd.ID != traceID {
		t.Fatalf("router trace id = %q, want %q", rtd.ID, traceID)
	}
	if shard, ok := spanAttr(rtd, "router POST /v1/reports", "shard"); !ok {
		t.Fatalf("router trace lacks the router span; spans: %v", names(rtd))
	} else if shard != "a" {
		t.Fatalf("router span shard attr = %q, want %q", shard, "a")
	}
	for _, sp := range rtd.Spans {
		if strings.HasPrefix(sp.Name, "server") || strings.HasPrefix(sp.Name, "store.") {
			t.Errorf("the router serves a shard's span %q: each process answers for itself", sp.Name)
		}
	}
	attempts := spanIDs(rtd, "retry.attempt")
	if len(attempts) != 1 {
		t.Fatalf("router trace holds %d retry.attempt spans, want 1; spans: %v", len(attempts), names(rtd))
	}

	// The shard's part, read from the shard: its handler continued over the
	// wire under the router's attempt, plus its dedupe and store children.
	std := fetchTrace(t, a.ts.URL, traceID)
	if parent := serverSpanParent(t, "a", std); parent != attempts[0] {
		t.Errorf("shard a's server span parent = %s, want the router's retry.attempt %s", parent, attempts[0])
	}
	for _, want := range []string{"server.dedupe", "store.add_report"} {
		if countSpans(std, want) == 0 {
			t.Errorf("shard a's trace lacks %q; spans: %v", want, names(std))
		}
	}
	if countSpans(std, "router POST /v1/reports") != 0 {
		t.Error("shard a serves the router's span: each process answers for itself")
	}
	for _, sh := range []*obsShard{b, c} {
		if got := traceStatus(t, sh.ts.URL, traceID); got != http.StatusNotFound {
			t.Errorf("shard %s: /debug/traces/%s answered %d, want 404 (it served nothing of the trace)", sh.id, traceID, got)
		}
	}

	// Both processes' indexes list the trace.
	for _, base := range []string{routerTS.URL, a.ts.URL} {
		body, err := getTextOK(base + "/debug/traces")
		if err != nil {
			t.Fatalf("trace index: %v", err)
		}
		if !strings.Contains(body, traceID) {
			t.Fatalf("trace index at %s does not list %s: %s", base, traceID, body)
		}
	}
}

func names(td trace.TraceData) []string {
	out := make([]string, len(td.Spans))
	for i, sp := range td.Spans {
		out[i] = sp.Name
	}
	return out
}

// TestThreeShardRerouteTraceNamesFinalShard covers the 421 path: the shards
// have already moved to a shrunk ring ({b,c}) while the router still routes
// on {a,b,c} — the half-propagated membership change 421 re-routing exists
// for. An upload the router sends to a comes back 421 naming the owner under
// the new ring, and the router re-routes once. The response names the shard
// that actually served, and both hops are linked to the router: the 421
// shard and the landing shard each hold a server span whose parent is a
// different router attempt.
func TestThreeShardRerouteTraceNamesFinalShard(t *testing.T) {
	routerMembers := []string{"a", "b", "c"}
	newMembers := []string{"b", "c"}
	a := newObsShard(t, "a", newMembers)
	b := newObsShard(t, "b", newMembers)
	c := newObsShard(t, "c", newMembers)
	_, routerTS := newObsRouter(t, a, b, c)

	// Routed to a under the router's stale ring, owned elsewhere under the
	// shards' new ring — the landing shard agrees it owns the segment.
	seg := segOwnedBy(t, routerMembers, "a")
	expect := ringOwner(t, newMembers, seg)
	if expect == "a" {
		t.Fatalf("test setup broken: new ring still owns %s at a", seg)
	}
	landing := map[string]*obsShard{"b": b, "c": c}[expect]

	const traceID = "00f067aa0ba902b74bf92f3577b34da6"
	resp := postTracedReport(t, routerTS.URL, api.Report{
		Vehicle: "veh-reroute",
		Segment: seg,
		APs:     []api.APReport{{X: 4, Y: 5, Credit: 6}},
	}, "obs-trace-421", traceID)
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-routed upload: status %d: %s", resp.StatusCode, respBody)
	}
	if got := resp.Header.Get(api.ShardHeader); got != expect {
		t.Fatalf("%s = %q, want re-routed owner %q", api.ShardHeader, got, expect)
	}

	rtd := fetchTrace(t, routerTS.URL, traceID)
	if shard, ok := spanAttr(rtd, "router POST /v1/reports", "shard"); !ok || shard != expect {
		t.Fatalf("router span shard attr = %q (present=%v), want %q", shard, ok, expect)
	}
	attempts := map[string]bool{}
	for _, id := range spanIDs(rtd, "retry.attempt") {
		attempts[id] = true
	}
	if len(attempts) < 2 {
		t.Fatalf("router trace holds %d retry.attempt spans, want >= 2 (421 + landing); spans: %v", len(attempts), names(rtd))
	}

	// Each hop's shard holds its own server span, under its own attempt.
	rejected := serverSpanParent(t, "a", fetchTrace(t, a.ts.URL, traceID))
	ltd := fetchTrace(t, landing.ts.URL, traceID)
	landed := serverSpanParent(t, expect, ltd)
	for hop, parent := range map[string]string{"421 shard a": rejected, "landing shard " + expect: landed} {
		if !attempts[parent] {
			t.Errorf("%s: server span parent %s is no router retry.attempt (%v)", hop, parent, attempts)
		}
	}
	if rejected == landed {
		t.Errorf("both hops name router attempt %s: want one attempt per hop", rejected)
	}
	if countSpans(ltd, "store.add_report") == 0 {
		t.Fatalf("the landing shard's trace lacks its store span; spans: %v", names(ltd))
	}
}

// TestThreeShardOwnMetricsClusterViewAndObjectiveInputs proves the rest of
// the plane: every process, the router included, serves only its own
// registry on /metrics, /debug/cluster sees all shards with zero drift, and
// the router's page carries what README's two objectives are computed from
// at the scraper. No process evaluates them itself: /debug/slo is 404.
func TestThreeShardOwnMetricsClusterViewAndObjectiveInputs(t *testing.T) {
	members := []string{"a", "b", "c"}
	a := newObsShard(t, "a", members)
	b := newObsShard(t, "b", members)
	c := newObsShard(t, "c", members)
	_, routerTS := newObsRouter(t, a, b, c)

	reports := e2eReports()
	postReports(t, routerTS.URL, reports, "obs-own")
	aggregate(t, routerTS.URL)
	lookupBytes(t, routerTS.URL)

	// The router's exposition is its own families and nothing of a shard's.
	body, err := getTextOK(routerTS.URL + "/metrics")
	if err != nil {
		t.Fatalf("router metrics: %v", err)
	}
	if !strings.Contains(body, "\ncrowdwifi_router_http_requests_total{") {
		t.Error("router metrics lack crowdwifi_router_http_requests_total")
	}
	if strings.Contains(body, "crowdwifi_http_requests_total") {
		t.Error("router metrics carry a shard family: crowdwifi_http_requests_total")
	}
	// Each shard is its own scrape target.
	for _, sh := range []*obsShard{a, b, c} {
		body, err := getTextOK(sh.ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("shard %s metrics: %v", sh.id, err)
		}
		if !strings.Contains(body, "\ncrowdwifi_http_requests_total{") {
			t.Errorf("shard %s metrics lack crowdwifi_http_requests_total", sh.id)
		}
	}

	// The objectives' inputs on the router's page: upload availability
	// counts every upload sent as a 2xx, lookup latency reads the 500 ms
	// bucket, and each histogram's _count is its +Inf bucket, the ratio's
	// denominator.
	series := parseExposition(t, body)
	var uploads float64
	for k, v := range series {
		if strings.HasPrefix(k, "crowdwifi_router_http_requests_total{") &&
			strings.Contains(k, `route="/v1/reports"`) && strings.Contains(k, `code="2`) {
			uploads += v
		}
	}
	if uploads != float64(len(reports)) {
		t.Errorf("router counts %v 2xx uploads, %d were sent", uploads, len(reports))
	}
	if _, ok := series[`crowdwifi_router_http_request_duration_seconds_bucket{route="/v1/lookup",le="0.5"}`]; !ok {
		t.Error(`router metrics lack the lookup series' le="0.5" bucket`)
	}
	counts := 0
	for k, v := range series {
		name, labels, ok := strings.Cut(k, "_count{")
		if !ok {
			continue
		}
		counts++
		inf := name + "_bucket{" + strings.TrimSuffix(labels, "}") + `,le="+Inf"}`
		if got, ok := series[inf]; !ok || got != v {
			t.Errorf("%s = %v, %s = %v (present %v)", k, v, inf, got, ok)
		}
	}
	if counts == 0 {
		t.Error("router metrics carry no labelled histogram series")
	}

	// Burn rates are the scraper's: no process serves an SLO status.
	for _, base := range []string{routerTS.URL, a.ts.URL} {
		resp, err := http.Get(base + "/debug/slo")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s/debug/slo: status %d, want 404", base, resp.StatusCode)
		}
	}

	// Cluster view: every shard reachable, resident data, zero drift.
	var view ClusterView
	if err := getJSONOK(routerTS.URL+"/debug/cluster", &view); err != nil {
		t.Fatalf("/debug/cluster: %v", err)
	}
	if len(view.Members) != 3 || len(view.Shards) != 3 {
		t.Fatalf("cluster view members=%v shards=%d, want 3/3", view.Members, len(view.Shards))
	}
	for id, sh := range view.Shards {
		if !sh.Reachable {
			t.Errorf("shard %s unreachable in cluster view: %s", id, sh.Error)
		}
		if len(sh.Segments) == 0 {
			t.Errorf("shard %s shows no segments in cluster view", id)
		}
	}
	if len(view.Drift) != 0 {
		t.Errorf("healthy cluster shows drift: %+v", view.Drift)
	}
}

// parseExposition maps each sample line of a Prometheus text page,
// name{labels} as written, to its value.
func parseExposition(t *testing.T, page string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func getTextOK(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body), nil
}

func getJSONOK(url string, out any) error {
	body, err := getTextOK(url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), out)
}
