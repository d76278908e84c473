package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/server"
)

// fastPolicy keeps tests quick: two attempts, millisecond backoff.
func fastPolicy() retry.Policy {
	return retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

// fakeShard is a scripted upstream recording everything the router sends.
type fakeShard struct {
	mu       sync.Mutex
	requests []recordedRequest
	handler  http.HandlerFunc
	ts       *httptest.Server
}

type recordedRequest struct {
	Method string
	Path   string
	Body   []byte
	Header http.Header
}

func newFakeShard(t *testing.T, handler http.HandlerFunc) *fakeShard {
	t.Helper()
	f := &fakeShard{handler: handler}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.requests = append(f.requests, recordedRequest{
			Method: r.Method, Path: r.URL.Path, Body: body, Header: r.Header.Clone(),
		})
		f.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		f.handler(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeShard) recorded() []recordedRequest {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]recordedRequest(nil), f.requests...)
}

func (f *fakeShard) calls(path string) int {
	n := 0
	for _, r := range f.recorded() {
		if r.Path == path {
			n++
		}
	}
	return n
}

func newTestRouter(t *testing.T, peers []Peer, members []string) *Router {
	t.Helper()
	rt, err := NewRouter(RouterOptions{Peers: peers, Members: members, Retry: fastPolicy()})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return rt
}

func reportBody(t *testing.T, segment string) []byte {
	t.Helper()
	b, err := json.Marshal(api.Report{
		Vehicle: "v1", Segment: segment,
		APs: []api.APReport{{X: 1, Y: 2, Credit: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=http://h1:1, b=http://h2:2")
	if err != nil {
		t.Fatalf("ParsePeers: %v", err)
	}
	if len(peers) != 2 || peers[0].ID != "a" || peers[1].URL != "http://h2:2" {
		t.Fatalf("ParsePeers = %+v", peers)
	}
	for _, bad := range []string{"", "a", "=http://x", "a=", "a=http://x,a=http://y"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): want error", bad)
		}
	}
}

func TestUploadRoutedToOwner(t *testing.T) {
	ok := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintln(w, `{"status":"accepted"}`)
	}
	a, b := newFakeShard(t, ok), newFakeShard(t, ok)
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", b.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	seg := "seg-route-test"
	owner := ring.New([]string{"a", "b"}, 0).Owner(seg)
	resp, err := http.Post(ts.URL+"/v1/reports", "application/json", bytes.NewReader(reportBody(t, seg)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || string(body) != "{\"status\":\"accepted\"}\n" {
		t.Fatalf("status=%d body=%q", resp.StatusCode, body)
	}
	wantOwner, other := a, b
	if owner == "b" {
		wantOwner, other = b, a
	}
	if got := wantOwner.calls("/v1/reports"); got != 1 {
		t.Errorf("owner %s got %d upload calls, want 1", owner, got)
	}
	if got := other.calls("/v1/reports"); got != 0 {
		t.Errorf("non-owner got %d upload calls, want 0", got)
	}
	// The upstream request carries a traceless but well-formed forward: the
	// body must be the client's bytes, verbatim.
	reqs := wantOwner.recorded()
	if !bytes.Equal(reqs[0].Body, reportBody(t, seg)) {
		t.Errorf("forwarded body = %q", reqs[0].Body)
	}
}

func TestUploadRerouteOn421(t *testing.T) {
	seg := "seg-421"
	owner := ring.New([]string{"a", "b"}, 0).Owner(seg)
	otherID := "b"
	if owner == "b" {
		otherID = "a"
	}
	// The ring owner answers 421 pointing at the other shard (its ring
	// disagrees, mid-rebalance); the other shard accepts.
	misdirect := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.OwnerHeader, otherID)
		w.WriteHeader(http.StatusMisdirectedRequest)
	}
	accept := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintln(w, `{"status":"accepted"}`)
	}
	shards := map[string]*fakeShard{
		owner:   newFakeShard(t, misdirect),
		otherID: newFakeShard(t, accept),
	}
	rt := newTestRouter(t, []Peer{{"a", shards["a"].ts.URL}, {"b", shards["b"].ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/reports", "application/json", bytes.NewReader(reportBody(t, seg)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, want 201 after re-route", resp.StatusCode)
	}
	if got := shards[otherID].calls("/v1/reports"); got != 1 {
		t.Errorf("re-route target got %d calls, want 1", got)
	}
}

func TestUploadRejectsBadBodies(t *testing.T) {
	a := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"malformed json", "{", http.StatusBadRequest},
		{"missing segment", `{"vehicle":"v1"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/reports", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if got := a.calls("/v1/reports"); got != 0 {
		t.Errorf("bad bodies reached the shard %d times", got)
	}
}

func lookupHandler(results []api.LookupResult) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(results)
	}
}

func TestLookupMergeOrdering(t *testing.T) {
	a := newFakeShard(t, lookupHandler([]api.LookupResult{{X: 1, Y: 1, Weight: 2}, {X: 3, Y: 0, Weight: 1}}))
	b := newFakeShard(t, lookupHandler([]api.LookupResult{{X: 0, Y: 5, Weight: 1}, {X: 1, Y: 1, Weight: 5}}))
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", b.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/lookup?xmin=0&ymin=0&xmax=10&ymax=10")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get(PartialHeader); h != "" {
		t.Errorf("unexpected partial header %q", h)
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode([]api.LookupResult{
		{X: 0, Y: 5, Weight: 1}, {X: 1, Y: 1, Weight: 5}, {X: 1, Y: 1, Weight: 2}, {X: 3, Y: 0, Weight: 1},
	})
	if !bytes.Equal(body, buf.Bytes()) {
		t.Errorf("merged body = %q, want %q", body, buf.Bytes())
	}
}

func TestLookupPartialOnShardFailure(t *testing.T) {
	a := newFakeShard(t, lookupHandler([]api.LookupResult{{X: 1, Y: 1, Weight: 1}}))
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from now on
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", dead.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/lookup?xmin=0&ymin=0&xmax=10&ymax=10")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get(PartialHeader); h != "b" {
		t.Errorf("partial header = %q, want \"b\"", h)
	}
	var got []api.LookupResult
	if err := json.Unmarshal(body, &got); err != nil || len(got) != 1 {
		t.Errorf("partial body = %q", body)
	}
}

func TestLookupAllShardsFailing(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	rt := newTestRouter(t, []Peer{{"a", dead.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/lookup?xmin=0&ymin=0&xmax=10&ymax=10")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
}

func TestLookupRejectsDegenerateRectWithoutFanout(t *testing.T) {
	a := newFakeShard(t, lookupHandler(nil))
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	for _, q := range []string{
		"xmin=5&ymin=0&xmax=1&ymax=10", // xmin > xmax
		"xmin=0&ymin=9&xmax=10&ymax=1", // ymin > ymax
		"xmin=&ymin=0&xmax=1&ymax=1",   // missing value
	} {
		resp, err := http.Get(ts.URL + "/v1/lookup?" + q)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status = %d, want 400", q, resp.StatusCode)
		}
	}
	if got := a.calls("/v1/lookup"); got != 0 {
		t.Errorf("degenerate rects fanned out %d times", got)
	}
}

func TestShardLocalRoutesNotImplemented(t *testing.T) {
	a := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	for _, path := range []string{"/v1/labels", "/v1/tasks"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s: status = %d, want 501", path, resp.StatusCode)
		}
	}
}

func TestAggregateSumsAcrossShards(t *testing.T) {
	agg := func(n int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]int{"fusedAPs": n})
		}
	}
	a, b := newFakeShard(t, agg(3)), newFakeShard(t, agg(4))
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", b.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/aggregate", "application/json", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out["fusedAPs"] != 7 {
		t.Fatalf("status=%d fusedAPs=%d, want 200/7", resp.StatusCode, out["fusedAPs"])
	}
}

func TestAggregateFailsClosedOnAnyShardError(t *testing.T) {
	ok := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int{"fusedAPs": 3})
	}
	boom := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "disk on fire", http.StatusInternalServerError)
	}
	a, b := newFakeShard(t, ok), newFakeShard(t, boom)
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", b.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/aggregate", "application/json", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d (%s), want 502", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "b") {
		t.Errorf("error body %q does not name the failed shard", body)
	}
}

func TestReliabilityMergePrefersFirstShardInSortedOrder(t *testing.T) {
	rel := func(scores map[string]float64) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(scores)
		}
	}
	a := newFakeShard(t, rel(map[string]float64{"v": 0.5}))
	b := newFakeShard(t, rel(map[string]float64{"v": 0.9, "w": 0.1}))
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", b.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/reliability")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	var out map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if out["v"] != 0.5 || out["w"] != 0.1 {
		t.Errorf("merged = %v, want v from shard a, w from shard b", out)
	}
}

func TestMembersEndpoint(t *testing.T) {
	members := func(f *fakeShard) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{"self": "x"})
		}
	}
	a := newFakeShard(t, nil)
	a.handler = members(a)
	b := newFakeShard(t, nil)
	b.handler = members(b)
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", b.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	// GET reflects the full-peer default membership.
	resp, err := http.Get(ts.URL + "/v1/cluster/members")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	var view struct {
		Members []string `json:"members"`
		Peers   []string `json:"peers"`
		VNodes  int      `json:"vnodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if strings.Join(view.Members, ",") != "a,b" || strings.Join(view.Peers, ",") != "a,b" {
		t.Fatalf("view = %+v", view)
	}

	// POST with an unknown member is rejected before touching the ring.
	resp, err = http.Post(ts.URL+"/v1/cluster/members", "application/json",
		strings.NewReader(`{"members":["a","ghost"]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown member: status = %d, want 400", resp.StatusCode)
	}
	if got := rt.Members(); strings.Join(got, ",") != "a,b" {
		t.Fatalf("ring changed on rejected update: %v", got)
	}

	// A valid shrink installs the ring and propagates to the new members
	// only — the departed shard is never contacted.
	resp, err = http.Post(ts.URL+"/v1/cluster/members", "application/json",
		strings.NewReader(`{"members":["a"]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shrink: status = %d", resp.StatusCode)
	}
	if got := rt.Members(); strings.Join(got, ",") != "a" {
		t.Fatalf("members = %v, want [a]", got)
	}
	if got := a.calls("/v1/cluster/members"); got != 1 {
		t.Errorf("member a got %d propagations, want 1", got)
	}
	if got := b.calls("/v1/cluster/members"); got != 0 {
		t.Errorf("departed shard b got %d propagations, want 0", got)
	}
}

// TestClusterViewModeWithoutRegistry holds /debug/cluster's per-shard mode
// to the last mode a shard answered with, also on a router built without a
// registry.
func TestClusterViewModeWithoutRegistry(t *testing.T) {
	readOnly := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.ModeHeader, "read-only")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"segments":{}}`)
	}
	a := newFakeShard(t, readOnly)
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}}, nil)
	// The first fetch is the router's first exchange with the shard; the
	// second reports the mode that exchange saw.
	clusterView(t, rt)
	if got := clusterView(t, rt).Shards["a"].Mode; got != "read-only" {
		t.Fatalf("shard a mode = %q, want read-only", got)
	}
}

func TestShedAndModeHeadersSurviveTheHop(t *testing.T) {
	seg := "seg-headers"
	shedding := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.ModeHeader, "read-only")
		w.Header().Set(api.RetryAfterMsHeader, "40")
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"server is read-only: durable writes unavailable"}`)
	}
	a := newFakeShard(t, shedding)
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports", bytes.NewReader(reportBody(t, seg)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.IdempotencyKeyHeader, "key-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want terminal 503 proxied", resp.StatusCode)
	}
	for name, want := range map[string]string{
		api.ModeHeader:         "read-only",
		api.RetryAfterMsHeader: "40",
		"Retry-After":          "1",
		"Content-Type":         "application/json",
	} {
		if got := resp.Header.Get(name); got != want {
			t.Errorf("header %s = %q, want %q", name, got, want)
		}
	}
	if !strings.Contains(string(body), "read-only") {
		t.Errorf("shard error body lost: %q", body)
	}
	// The Idempotency-Key must reach the shard so the dedupe cache sees the
	// same key the client sent.
	for i, rec := range a.recorded() {
		if rec.Header.Get(api.IdempotencyKeyHeader) != "key-1" {
			t.Errorf("attempt %d: idempotency key not forwarded", i)
		}
	}
	// A 503 with Retry-After is the shard's answer: the router relays it
	// after one attempt and leaves the retry to the client.
	if got := a.calls("/v1/reports"); got != 1 {
		t.Errorf("shed reached the shard %d times, want 1", got)
	}
}

// TestIdempotentReplayByteIdenticalThroughRouter is the proxy-hop dedupe
// contract: replaying an Idempotency-Key via the router returns the same
// status, body bytes, and replay/backoff headers as replaying it against
// the shard directly.
func TestIdempotentReplayByteIdenticalThroughRouter(t *testing.T) {
	store := server.NewStore(10)
	srv := server.New(store)
	shard := httptest.NewServer(srv)
	defer shard.Close()

	rt := newTestRouter(t, []Peer{{"a", shard.URL}}, nil)
	rts := httptest.NewServer(rt)
	defer rts.Close()

	seg := "seg-replay"
	post := func(base, key string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/reports", bytes.NewReader(reportBody(t, seg)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.IdempotencyKeyHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", base, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	// First delivery through the router.
	first, firstBody := post(rts.URL, "replay-key")
	if first.StatusCode != http.StatusCreated {
		t.Fatalf("first: status = %d: %s", first.StatusCode, firstBody)
	}
	// Replay direct against the shard, then via the router.
	direct, directBody := post(shard.URL, "replay-key")
	viaRouter, routerBody := post(rts.URL, "replay-key")

	if direct.StatusCode != viaRouter.StatusCode {
		t.Errorf("status direct=%d via router=%d", direct.StatusCode, viaRouter.StatusCode)
	}
	if !bytes.Equal(directBody, routerBody) {
		t.Errorf("replay bodies differ: direct=%q router=%q", directBody, routerBody)
	}
	if !bytes.Equal(firstBody, routerBody) {
		t.Errorf("replay body differs from first delivery: first=%q replay=%q", firstBody, routerBody)
	}
	for _, name := range []string{"Idempotent-Replay", "Content-Type", "Retry-After", api.RetryAfterMsHeader} {
		if d, v := direct.Header.Get(name), viaRouter.Header.Get(name); d != v {
			t.Errorf("header %s: direct=%q via router=%q", name, d, v)
		}
	}
	if viaRouter.Header.Get("Idempotent-Replay") != "true" {
		t.Errorf("router replay missing Idempotent-Replay header")
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterOptions{}); err == nil {
		t.Error("no peers: want error")
	}
	if _, err := NewRouter(RouterOptions{Peers: []Peer{{"a", "://bad"}}}); err == nil {
		t.Error("bad url: want error")
	}
	if _, err := NewRouter(RouterOptions{
		Peers:   []Peer{{"a", "http://h:1"}},
		Members: []string{"ghost"},
	}); err == nil {
		t.Error("member not a peer: want error")
	}
}

func TestPeerEndpointJoinsPaths(t *testing.T) {
	u, _ := url.Parse("http://h:1/base/")
	pc := &peerClient{id: "a", base: u}
	if got := pc.endpoint("/v1/lookup", "x=1"); got != "http://h:1/base/v1/lookup?x=1" {
		t.Errorf("endpoint = %q", got)
	}
}
