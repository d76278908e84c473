package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
)

// scrape fetches /metrics from the test server and returns the exposition.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValue extracts the sample value of the series whose line starts with
// prefix (name plus optional label set), or fails the test.
func seriesValue(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix+" "), 64)
		if err != nil {
			t.Fatalf("series %s: bad value in line %q: %v", prefix, line, err)
		}
		return v
	}
	t.Fatalf("series %s not found in exposition:\n%s", prefix, exposition)
	return 0
}

// TestMetricsEndToEnd drives a full report → label → aggregate round trip
// over HTTP and asserts the /metrics exposition reflects it: per-route
// request series, ingest counters, aggregation gauges, and the crowd
// inference sweep counter.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	store := NewStore(10)
	ts := httptest.NewServer(New(store, WithMetrics(metrics), WithLogger(nil)))
	defer ts.Close()

	// Three vehicles report the same two APs; one of them proposes the
	// constellation as a mapping task and all three confirm it.
	aps := []APReport{{X: 10, Y: 5, Credit: 4}, {X: 40, Y: -3, Credit: 3}}
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/reports", Report{
			Vehicle: fmt.Sprintf("veh-%d", i), Segment: "seg-1", APs: aps,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("report: status %d", resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/patterns", Pattern{Segment: "seg-1", APs: aps})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pattern: status %d", resp.StatusCode)
	}
	var labels []Label
	for i := 0; i < 3; i++ {
		labels = append(labels, Label{Vehicle: fmt.Sprintf("veh-%d", i), TaskID: 0, Value: 1})
	}
	resp = postJSON(t, ts.URL+"/v1/labels", labels)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("labels: status %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/aggregate", nil)
	if err != nil {
		t.Fatal(err)
	}
	aggResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	aggResp.Body.Close()
	if aggResp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate: status %d", aggResp.StatusCode)
	}

	exp := scrape(t, ts.URL)

	// Ingest counters.
	if v := seriesValue(t, exp, "crowdwifi_server_reports_total"); v != 3 {
		t.Errorf("reports_total = %v, want 3", v)
	}
	if v := seriesValue(t, exp, "crowdwifi_server_labels_total"); v != 3 {
		t.Errorf("labels_total = %v, want 3", v)
	}
	if v := seriesValue(t, exp, "crowdwifi_server_patterns_total"); v != 1 {
		t.Errorf("patterns_total = %v, want 1", v)
	}

	// Aggregation cycle ran once and fused the two APs.
	if v := seriesValue(t, exp, "crowdwifi_server_aggregate_cycles_total"); v != 1 {
		t.Errorf("aggregate_cycles_total = %v, want 1", v)
	}
	if v := seriesValue(t, exp, "crowdwifi_server_fused_aps"); v != 2 {
		t.Errorf("fused_aps = %v, want 2", v)
	}
	if v := seriesValue(t, exp, "crowdwifi_server_vehicles_scored"); v != 3 {
		t.Errorf("vehicles_scored = %v, want 3", v)
	}
	if v := seriesValue(t, exp, `crowdwifi_server_aggregate_duration_seconds_count`); v != 1 {
		t.Errorf("aggregate_duration count = %v, want 1", v)
	}

	// The aggregation triggered at least one reliability-inference run with
	// message-passing sweeps.
	if v := seriesValue(t, exp, "crowdwifi_crowd_inference_sweeps_sum"); v < 1 {
		t.Errorf("crowd sweeps = %v, want >= 1", v)
	}
	runs := seriesValue(t, exp, `crowdwifi_crowd_inference_runs_total{outcome="converged"}`) +
		seriesValue(t, exp, `crowdwifi_crowd_inference_runs_total{outcome="diverged"}`)
	if runs != 1 {
		t.Errorf("inference runs = %v, want 1", runs)
	}

	// Per-route HTTP series: counts by route/method/code and the latency
	// histogram for every registered route (present even if unhit).
	if v := seriesValue(t, exp, `crowdwifi_http_requests_total{code="201",method="POST",route="/v1/reports"}`); v != 3 {
		t.Errorf("reports route count = %v, want 3", v)
	}
	if v := seriesValue(t, exp, `crowdwifi_http_requests_total{code="200",method="POST",route="/v1/aggregate"}`); v != 1 {
		t.Errorf("aggregate route count = %v, want 1", v)
	}
	for _, route := range []string{
		"/v1/patterns", "/v1/tasks", "/v1/labels", "/v1/reports",
		"/v1/aggregate", "/v1/lookup", "/v1/reliability",
	} {
		want := fmt.Sprintf(`crowdwifi_http_request_duration_seconds_count{route=%q}`, route)
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing latency histogram for route %s", route)
		}
	}

	// Resilience counters are exposed from startup (all zero so far: no
	// duplicate deliveries, no shedding, no oversized bodies).
	for _, series := range []string{
		"crowdwifi_server_deduped_requests_total",
		"crowdwifi_server_shed_requests_total",
		"crowdwifi_server_body_limit_rejections_total",
	} {
		if v := seriesValue(t, exp, series); v != 0 {
			t.Errorf("%s = %v, want 0", series, v)
		}
	}

	// A duplicate delivery of a keyed report is answered from the idempotency
	// cache: the dedupe counter moves, the ingest counter does not.
	dup := Report{Vehicle: "veh-0", Segment: "seg-1", APs: aps}
	for i := 0; i < 2; i++ {
		resp := postKeyed(t, ts.URL+"/v1/reports", "metrics-dup-key", dup)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("keyed report %d: status %d", i, resp.StatusCode)
		}
	}
	exp = scrape(t, ts.URL)
	if v := seriesValue(t, exp, "crowdwifi_server_deduped_requests_total"); v != 1 {
		t.Errorf("deduped_requests_total = %v, want 1", v)
	}
	if v := seriesValue(t, exp, "crowdwifi_server_reports_total"); v != 4 {
		t.Errorf("reports_total after duplicate = %v, want 4 (duplicate not ingested)", v)
	}

	// Error responses are labelled with their status code.
	badResp := postJSON(t, ts.URL+"/v1/labels", []Label{{Vehicle: "x", TaskID: 99, Value: 1}})
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad label: status %d", badResp.StatusCode)
	}
	exp = scrape(t, ts.URL)
	if v := seriesValue(t, exp, `crowdwifi_http_requests_total{code="400",method="POST",route="/v1/labels"}`); v != 1 {
		t.Errorf("400 label count = %v, want 1", v)
	}

	// The exposition parses as Prometheus text format: every non-comment
	// line is `name{labels} value` with a float value.
	lineRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSpace(exp), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRe.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestDebugEndpointsMounted asserts pprof shares the API mux, and that
// /metrics is the one exposition: /debug/vars is not served.
func TestDebugEndpointsMounted(t *testing.T) {
	reg := obs.NewRegistry()
	store := NewStore(10)
	ts := httptest.NewServer(New(store, WithMetrics(NewMetrics(reg))))
	defer ts.Close()

	for path, want := range map[string]int{"/debug/pprof/": http.StatusOK, "/debug/vars": http.StatusNotFound} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestUninstrumentedServerStillWorks guards the nil-metrics path.
func TestUninstrumentedServerStillWorks(t *testing.T) {
	store := NewStore(10)
	ts := httptest.NewServer(New(store))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/reports", Report{Vehicle: "v", Segment: "s", APs: nil})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics on uninstrumented server: status %d, want 404", resp2.StatusCode)
	}
}

// TestSlowestExemplarResolvesToTrace closes the observability loop an
// operator walks to an example of a slow request: the /debug/traces index
// lists the upload route's slowest traces, and the first of them is a trace
// the server still serves at /debug/traces/{id}.
func TestSlowestExemplarResolvesToTrace(t *testing.T) {
	ts := httptest.NewServer(New(NewStore(10),
		WithMetrics(NewMetrics(obs.NewRegistry())),
		WithTracer(trace.NewTracer(trace.Config{SampleRate: 1}))))
	defer ts.Close()
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/reports", Report{Vehicle: "v", Segment: fmt.Sprintf("s%d", i)})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("report %d: status %d", i, resp.StatusCode)
		}
	}

	var index struct {
		Slowest map[string][]trace.TraceSummary `json:"slowest"`
	}
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatalf("decode /debug/traces: %v", err)
	}
	uploads := index.Slowest["server POST /v1/reports"]
	if len(uploads) == 0 {
		t.Fatalf("the trace index lists no slow upload: %v", index.Slowest)
	}
	for i := 1; i < len(uploads); i++ {
		if uploads[i].DurationNS > uploads[0].DurationNS {
			t.Fatalf("slowest list not slowest first: %+v", uploads)
		}
	}
	id := uploads[0].ID

	tresp, err := http.Get(ts.URL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	body, _ := io.ReadAll(tresp.Body)
	if tresp.StatusCode != http.StatusOK || !strings.Contains(string(body), id) {
		t.Fatalf("GET /debug/traces/%s = %d, want 200 naming the id (body: %s)", id, tresp.StatusCode, body)
	}
}
