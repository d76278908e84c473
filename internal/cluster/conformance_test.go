package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/client"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/server"
	"crowdwifi/internal/wal"
)

// oneSlot caps every family at a single concurrency slot: holding the upload
// slot makes the next upload shed once its queue deadline passes.
var oneSlot = overload.Options{Max: 1}

// tiers is one shard with a router in front of it, both assembled the way
// the binaries assemble them: metrics, tracer, overload control.
type tiers struct {
	shard        *server.Server
	shardReg     *obs.Registry
	shardTracer  *trace.Tracer
	shardURL     string
	router       *Router
	routerReg    *obs.Registry
	routerTracer *trace.Tracer
	routerURL    string
}

func newTiers(t *testing.T, store *server.Store) *tiers {
	t.Helper()
	tr := &tiers{
		shardReg:     obs.NewRegistry(),
		shardTracer:  trace.NewTracer(trace.Config{SampleRate: 1}),
		routerReg:    obs.NewRegistry(),
		routerTracer: trace.NewTracer(trace.Config{SampleRate: 1}),
	}
	tr.shard = server.New(store,
		server.WithMetrics(server.NewMetrics(tr.shardReg)),
		server.WithTracer(tr.shardTracer),
		server.WithOverload(oneSlot),
		server.WithCluster(server.ClusterOptions{Self: "a", Members: []string{"a"}}))
	shardTS := httptest.NewServer(tr.shard)
	t.Cleanup(shardTS.Close)
	tr.shardURL = shardTS.URL

	var err error
	tr.router, err = NewRouter(RouterOptions{
		Peers:    []Peer{{ID: "a", URL: shardTS.URL}},
		Retry:    retry.Policy{MaxAttempts: 1},
		Registry: tr.routerReg,
		Overload: &oneSlot,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	routerTS := httptest.NewServer(WithTracer(tr.routerTracer, tr.router))
	t.Cleanup(routerTS.Close)
	tr.routerURL = routerTS.URL
	return tr
}

// answer is everything of a response the two tiers must agree on.
type answer struct {
	status                    int
	retryAfter, retryMs, mode string
	body                      string
}

func ask(t *testing.T, base, method, path string, header map[string]string, body []byte) answer {
	t.Helper()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{
		status:     resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After"),
		retryMs:    resp.Header.Get(api.RetryAfterMsHeader),
		mode:       resp.Header.Get(api.ModeHeader),
		body:       string(b),
	}
}

// spansNamed counts the spans of one name in one trace of a tracer's store.
func spansNamed(tr *trace.Tracer, traceID, name string) int {
	data, _ := tr.Store().Get(traceID)
	n := 0
	for _, sp := range data.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestCrossTierConformance sends the same request to a shard and to a router
// in front of it and demands the same status, the same backoff and mode
// headers and the same error-body bytes: a client cannot tell which tier
// refused it. Traced requests get exactly one server span per hop.
func TestCrossTierConformance(t *testing.T) {
	report := reportBody(t, "seg-1")
	// over is a JSON report exactly one byte longer than limit.
	over := func(limit int) []byte {
		one, _ := json.Marshal(api.Report{Vehicle: "v", Segment: "seg-1"})
		b, _ := json.Marshal(api.Report{Vehicle: strings.Repeat("v", limit+2-len(one)), Segment: "seg-1"})
		if len(b) != limit+1 {
			t.Fatalf("over(%d) is %d bytes", limit, len(b))
		}
		return b
	}
	asJSON := map[string]string{"Content-Type": "application/json"}
	asFrames := map[string]string{"Content-Type": api.FrameContentType}
	cases := []struct {
		name   string
		setup  func(t *testing.T, tr *tiers)
		method string
		path   string
		header map[string]string
		body   []byte
		want   answer
	}{
		{
			name: "admission shed",
			setup: func(t *testing.T, tr *tiers) {
				dec := tr.shard.Overload().Admit(context.Background(), overload.FamilyUpload, true)
				if !dec.OK {
					t.Fatal("could not take the shard's only upload slot")
				}
				t.Cleanup(func() { dec.Release(0, true) })
			},
			method: http.MethodPost, path: "/v1/reports", header: asJSON, body: report,
			want: answer{status: 503, retryAfter: "1", retryMs: "100", mode: "healthy", body: "{\"error\":\"server over capacity\"}\n"},
		},
		{
			name: "read-only",
			setup: func(t *testing.T, tr *tiers) {
				tr.shard.Overload().Controller().ReportDurabilityError(errors.New("disk on fire"))
			},
			method: http.MethodPost, path: "/v1/reports", header: asJSON, body: report,
			want: answer{status: 503, retryAfter: "2", retryMs: "2000", mode: "read-only",
				body: "{\"error\":\"server is read-only: durable writes unavailable\"}\n"},
		},
		{
			name:   "oversized single body",
			method: http.MethodPost, path: "/v1/reports", header: asJSON, body: over(api.DefaultMaxBodyBytes),
			want: answer{status: 413, mode: "healthy", body: "{\"error\":\"body exceeds 1048576 bytes\"}\n"},
		},
		{
			name:   "oversized batch body",
			method: http.MethodPost, path: "/v1/reports/batch", header: asFrames, body: over(api.DefaultBatchMaxBodyBytes),
			want: answer{status: 413, mode: "healthy", body: "{\"error\":\"body exceeds 16777216 bytes\"}\n"},
		},
		{
			name:   "JSON batch body",
			method: http.MethodPost, path: "/v1/reports/batch", header: asJSON, body: []byte(`{"entries":[]}`),
			want: answer{status: 415, mode: "healthy",
				body: "{\"error\":\"a batch is a stream of application/x-crowdwifi-frame frames\"}\n"},
		},
		{
			name:   "degenerate rect",
			method: http.MethodGet, path: "/v1/lookup?xmin=2&ymin=0&xmax=1&ymax=1",
			want: answer{status: 400, mode: "healthy",
				body: "{\"error\":\"degenerate rect: xmin must not exceed xmax and ymin must not exceed ymax\"}\n"},
		},
		{
			name:   "unescaped exponent in lookup query",
			method: http.MethodGet, path: "/v1/lookup?xmin=0&ymin=0&xmax=1e+06&ymax=1",
			want: answer{status: 400, mode: "healthy", body: "{\"error\":\"bad xmax\"}\n"},
		},
		{
			name:   "wrong method on lookup",
			method: http.MethodPost, path: "/v1/lookup",
			want: answer{status: 405, mode: "healthy"},
		},
		{
			name:   "wrong method on aggregate",
			method: http.MethodGet, path: "/v1/aggregate",
			want: answer{status: 405, mode: "healthy"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTiers(t, server.NewStore(10))
			if tc.setup != nil {
				tc.setup(t, tr)
			}
			direct := ask(t, tr.shardURL, tc.method, tc.path, tc.header, tc.body)
			routed := ask(t, tr.routerURL, tc.method, tc.path, tc.header, tc.body)
			if direct != tc.want {
				t.Errorf("shard answered  %+v\nwant            %+v", direct, tc.want)
			}
			if routed != direct {
				t.Errorf("router answered %+v\nshard answered  %+v", routed, direct)
			}
			// Only the shard originated these 503s; the router relayed one.
			wantSheds := 0.0
			if tc.want.status == http.StatusServiceUnavailable {
				wantSheds = 2
			}
			if got := tr.shardReg.SumCounters("crowdwifi_server_shed_requests_total", nil); got != wantSheds {
				t.Errorf("shard shed counter = %v, want %v", got, wantSheds)
			}
			if got := tr.routerReg.SumCounters("crowdwifi_router_shed_requests_total", nil); got != 0 {
				t.Errorf("router shed counter = %v, want 0", got)
			}
		})
	}

	t.Run("traced request", func(t *testing.T) {
		tr := newTiers(t, server.NewStore(10))
		header := func(traceID string) map[string]string {
			return map[string]string{"Content-Type": "application/json", "traceparent": "00-" + traceID + "-00f067aa0ba902b7-01"}
		}
		directID, routedID := strings.Repeat("a", 32), strings.Repeat("b", 32)
		direct := ask(t, tr.shardURL, http.MethodPost, "/v1/reports", header(directID), report)
		routed := ask(t, tr.routerURL, http.MethodPost, "/v1/reports", header(routedID), report)
		if direct.status != http.StatusCreated || routed != direct {
			t.Fatalf("shard answered %+v, router %+v", direct, routed)
		}
		for _, hop := range []struct {
			tracer *trace.Tracer
			id     string
			span   string
			want   int
		}{
			{tr.shardTracer, directID, "server POST /v1/reports", 1},
			{tr.routerTracer, directID, "router POST /v1/reports", 0},
			{tr.routerTracer, routedID, "router POST /v1/reports", 1},
			{tr.shardTracer, routedID, "server POST /v1/reports", 1},
		} {
			if got := spansNamed(hop.tracer, hop.id, hop.span); got != hop.want {
				t.Errorf("trace %s: %d %q spans, want %d", hop.id[:4], got, hop.span, hop.want)
			}
		}
	})
}

// TestRouterCountsEvery503ItOriginates is the shed-counter regression: the
// router's admission sheds and its handler sheds ("no cluster members") go
// through the one shed writer, so each increments
// crowdwifi_router_shed_requests_total exactly once and has the shard's 503
// shape with the tier's own name in the reason.
func TestRouterCountsEvery503ItOriginates(t *testing.T) {
	tr := newTiers(t, server.NewStore(10))
	sheds := func() float64 { return tr.routerReg.SumCounters("crowdwifi_router_shed_requests_total", nil) }
	report := reportBody(t, "seg-1")
	asJSON := map[string]string{"Content-Type": "application/json"}

	dec := tr.router.stack.Admission.Admit(context.Background(), overload.FamilyUpload, false)
	if !dec.OK {
		t.Fatal("could not take the router's only upload slot")
	}
	got := ask(t, tr.routerURL, http.MethodPost, "/v1/reports", asJSON, report)
	dec.Release(0, true)
	want := answer{status: 503, retryAfter: "1", retryMs: "100", mode: "healthy", body: "{\"error\":\"router over capacity\"}\n"}
	if got != want {
		t.Errorf("admission shed answered %+v, want %+v", got, want)
	}
	if n := sheds(); n != 1 {
		t.Errorf("after an admission shed: counter = %v, want 1", n)
	}

	tr.router.ring.Store(ring.New(nil, 0))
	for i, path := range []string{"/v1/reports", "/v1/reports/batch"} {
		header, body := asJSON, report
		if path == api.RouteReportsBatch {
			header, body = map[string]string{"Content-Type": api.FrameContentType}, nil
		}
		got := ask(t, tr.routerURL, http.MethodPost, path, header, body)
		if got.status != http.StatusServiceUnavailable || got.retryAfter != "1" || got.body != "{\"error\":\"no cluster members\"}\n" {
			t.Errorf("%s on an empty ring answered %+v", path, got)
		}
		if n := sheds(); n != float64(2+i) {
			t.Errorf("after %s on an empty ring: counter = %v, want %d", path, n, 2+i)
		}
	}
	if n := tr.shardReg.SumCounters("crowdwifi_server_shed_requests_total", nil); n != 0 {
		t.Errorf("shard shed counter = %v, want 0: no request reached it", n)
	}
}

// TestLookupQueryRoundTripsBothTiers is the %g regression: a user-vehicle
// lookup whose coordinates need an exponent (|v| ≥ 1e6 m — a UTM northing —
// or tiny) reaches the shard, directly and through the router, as the rect
// the caller asked for. At the parent commit the client sent "1e+06" with a
// bare "+" and both tiers answered 400 "bad xmax".
func TestLookupQueryRoundTripsBothTiers(t *testing.T) {
	for _, v := range []float64{999999, 1e6, 3725000.5, -3725000.5, 1e-7} {
		dir := t.TempDir()
		snapshot := fmt.Sprintf(`{"fused":{"s":[{"x":%g,"y":%g,"weight":1},{"x":%g,"y":%g,"weight":1}]}}`, v, v, v+10, v)
		if err := wal.WriteSnapshot(dir, 1, strings.NewReader(snapshot)); err != nil {
			t.Fatal(err)
		}
		store, _, err := server.OpenStore(10, server.StorageOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		tr := newTiers(t, store)
		area := geo.Rect{Min: geo.Point{X: v - 1, Y: v - 1}, Max: geo.Point{X: v + 1, Y: v + 1}}
		for tier, base := range map[string]string{"shard": tr.shardURL, "router": tr.routerURL} {
			// The user vehicle asks for a frame; the JSON answer is read
			// raw, as a person's curl would.
			got, err := client.NewUserVehicle(base).Lookup(context.Background(), area)
			if err != nil {
				t.Errorf("%v via %s (frame): %v", v, tier, err)
			} else if len(got) != 1 || got[0] != (geo.Point{X: v, Y: v}) {
				t.Errorf("%v via %s (frame): got %v, want the one AP at (%v, %v)", v, tier, got, v, v)
			}
			resp, err := http.Get(base + api.RouteLookup + "?" + api.LookupQuery(area))
			if err != nil {
				t.Fatal(err)
			}
			var rows []api.LookupResult
			err = json.NewDecoder(resp.Body).Decode(&rows)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%v via %s (json): status %d, %v", v, tier, resp.StatusCode, err)
			} else if len(rows) != 1 || rows[0].X != v || rows[0].Y != v {
				t.Errorf("%v via %s (json): got %v, want the one AP at (%v, %v)", v, tier, rows, v, v)
			}
		}
	}
}

// TestRouterMergeEqualsStoreLookupOnUnion is the merge property: for random
// fused maps split over k shards — drawn from a small lattice so (X, Y) ties
// with different weights are the rule — the router's answer is byte for byte
// what one Store holding the union answers, for random query rects.
func TestRouterMergeEqualsStoreLookupOnUnion(t *testing.T) {
	openWith := func(fused map[string][]api.LookupResult) *server.Store {
		dir := t.TempDir()
		data, err := json.Marshal(map[string]any{"fused": fused})
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.WriteSnapshot(dir, 1, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		store, _, err := server.OpenStore(10, server.StorageOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		return store
	}
	rnd := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rnd.Intn(4)
		union := map[string][]api.LookupResult{}
		var peers []Peer
		for s := 0; s < k; s++ {
			part := map[string][]api.LookupResult{}
			for seg := 0; seg < 1+rnd.Intn(3); seg++ {
				name := fmt.Sprintf("shard%d-seg%d", s, seg)
				for i := 0; i < rnd.Intn(12); i++ {
					part[name] = append(part[name], api.LookupResult{
						X: float64(rnd.Intn(4)), Y: float64(rnd.Intn(4)), Weight: float64(1+rnd.Intn(3)) / 2,
					})
				}
				union[name] = part[name]
			}
			ts := httptest.NewServer(server.New(openWith(part)))
			t.Cleanup(ts.Close)
			peers = append(peers, Peer{ID: fmt.Sprintf("s%d", s), URL: ts.URL})
		}
		whole := openWith(union)
		routerTS := httptest.NewServer(newTestRouter(t, peers, nil))
		t.Cleanup(routerTS.Close)
		for q := 0; q < 5; q++ {
			x, y := float64(rnd.Intn(3)), float64(rnd.Intn(3))
			area := geo.Rect{Min: geo.Point{X: x, Y: y}, Max: geo.Point{X: x + float64(rnd.Intn(4)), Y: y + float64(rnd.Intn(4))}}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(whole.Lookup(area)); err != nil {
				t.Fatal(err)
			}
			got := ask(t, routerTS.URL, http.MethodGet, "/v1/lookup?"+api.LookupQuery(area), nil, nil)
			if got.status != http.StatusOK || got.body != want.String() {
				t.Fatalf("trial %d (k=%d) rect %+v:\nrouter %d %s\nstore  %s", trial, k, area, got.status, got.body, want.String())
			}
		}
	}
}
