package cluster

// The router's exact counts: what its batch split allocates, what one upload
// and one lookup allocate through both tiers, and how many requests and bytes
// a client request turns into upstream. They are not
// timings, so a slow box cannot blur them. A change that moves one edits the
// literal here, and its before and after is a reviewed diff.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/api/front"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/server"
)

// countsBatchBytes is the size of countsBatch(0, 500): 500 frames of a key,
// a vehicle, a segment and 8 APs, shaped like the benchmark's preload.
const countsBatchBytes = 118_390

// wantRouterCounts is one row per measured quantity of the router.
var wantRouterCounts = map[string]float64{
	// splitBatch of countsBatch(0, 500) over a two-member ring, averaged over
	// 100 calls: one key string per entry, and the entry slice and the two
	// owners' position lists grown by doubling. It was 2,030 when the split
	// decoded every frame whole (2,011: three strings and an AP list each)
	// and then grouped the entries.
	"allocs/split 500 frames": 531,
	// One sub-batch per owner, whatever the batch holds.
	"upstream/batch": 2,
	// A lookup scatters to every member.
	"upstream/lookup": 2,
	// The sub-batches carry the client's frames, verbatim and only once.
	"forwarded bytes/batch": countsBatchBytes,
	// The router's /metrics is its own registry: a scrape asks no shard
	// anything. It was one GET per member while it federated the shards'.
	"upstream/metrics scrape": 0,
	// A shard's shed (503 with Retry-After) is its answer: the router relays
	// it after one request. It was 2 at the tests' 2-attempt policy (up to 4
	// at the default) while every hop retried a shed.
	"upstream/shed upload": 1,
	// No breaker counts a shed, so the shard's stays closed and its lookups
	// are served. It was 10: 3 shed uploads made 5 failed attempts, the
	// breaker opened, and every routed lookup was refused for 2 s.
	"refused lookups/10 after 3 shed uploads": 0,
}

// countsBatch is a binary batch of size reports, keyed "pre-n-i", spread
// over 1,000 segments and 1,000 vehicles.
func countsBatch(tb testing.TB, n, size int) []byte {
	tb.Helper()
	var body []byte
	for i := 0; i < size; i++ {
		k := n*size + i
		rep := api.Report{
			Vehicle: fmt.Sprintf("veh-%04d", (7*k)%1000),
			Segment: fmt.Sprintf("seg-%05d", (13*k)%1000),
			APs:     make([]api.APReport, 8),
		}
		for j := range rep.APs {
			rep.APs[j] = api.APReport{X: float64(k%1000)*226 + float64(j)*25, Y: float64(j) * 20, Credit: float64(2 + (k+j)%8)}
		}
		var err error
		if body, err = api.EncodeReportFrame(body, fmt.Sprintf("pre-%d-%d", n, i), rep); err != nil {
			tb.Fatal(err)
		}
	}
	return body
}

// upstreamCounter is the router's transport, counting the requests and
// request-body bytes it carries per route.
type upstreamCounter struct {
	mu       sync.Mutex
	requests map[string]int
	bytes    map[string]int64
}

func (c *upstreamCounter) Do(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.requests[req.URL.Path]++
	c.bytes[req.URL.Path] += req.ContentLength
	c.mu.Unlock()
	return http.DefaultClient.Do(req)
}

func (c *upstreamCounter) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests, c.bytes = map[string]int{}, map[string]int64{}
}

// newCountsCluster is a router over two in-memory shards, each an
// httptest server, and the client-facing URL of the router, which serves
// the router's debug surface beside its API as the router binary does.
func newCountsCluster(tb testing.TB) (*upstreamCounter, string) {
	tb.Helper()
	members := []string{"a", "b"}
	var peers []Peer
	for _, id := range members {
		srv := server.New(server.NewStore(e2eRadius), server.WithCluster(server.ClusterOptions{Self: id, Members: members}))
		ts := httptest.NewServer(srv)
		tb.Cleanup(ts.Close)
		peers = append(peers, Peer{ID: id, URL: ts.URL})
	}
	up := &upstreamCounter{}
	up.reset()
	rt, err := NewRouter(RouterOptions{Peers: peers, Retry: fastPolicy(), HTTP: up})
	if err != nil {
		tb.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", rt)
	front.ServeDebug(mux, rt.DebugHandler(nil, obs.NewHealth()))
	ts := httptest.NewServer(mux)
	tb.Cleanup(ts.Close)
	return up, ts.URL
}

// postBatch sends a binary batch through the router and checks every entry
// was stored.
func postBatch(tb testing.TB, base string, body []byte, size int) {
	req, _ := http.NewRequest(http.MethodPost, base+api.RouteReportsBatch, bytes.NewReader(body))
	req.Header.Set("Content-Type", api.FrameContentType)
	req.Header.Set("Accept", api.FrameContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	statuses, err := api.DecodeBatchStatusFrame(raw)
	if resp.StatusCode != http.StatusOK || err != nil || len(statuses) != size {
		tb.Fatalf("batch: status %d, %d statuses (%v): %.200s", resp.StatusCode, len(statuses), err, raw)
	}
	for i, st := range statuses {
		if st.Status != http.StatusCreated {
			tb.Fatalf("entry %d: %+v, want 201", i, st)
		}
	}
}

func TestCountsRouter(t *testing.T) {
	body := countsBatch(t, 0, 500)
	if len(body) != countsBatchBytes {
		t.Fatalf("fixture is %d bytes, want %d", len(body), countsBatchBytes)
	}
	up, base := newCountsCluster(t)
	got := map[string]float64{}

	postBatch(t, base, body, 500)
	got["upstream/batch"] = float64(up.requests[api.RouteReportsBatch])
	got["forwarded bytes/batch"] = float64(up.bytes[api.RouteReportsBatch])

	up.reset()
	resp, err := http.Get(base + api.RouteLookup + "?" + e2eLookupQuery)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup: status %d", resp.StatusCode)
	}
	got["upstream/lookup"] = float64(up.requests[api.RouteLookup])

	up.reset()
	if _, err := getTextOK(base + "/metrics"); err != nil {
		t.Fatal(err)
	}
	got["upstream/metrics scrape"] = 0
	for _, n := range up.requests {
		got["upstream/metrics scrape"] += float64(n)
	}

	shedCounts(t, got)

	if !raceEnabled {
		rg := ring.New([]string{"a", "b"}, 0)
		got["allocs/split 500 frames"] = testing.AllocsPerRun(100, func() {
			if _, _, err := splitBatch(body, rg); err != nil {
				t.Fatal(err)
			}
		})
	}

	for name, want := range wantRouterCounts {
		v, ok := got[name]
		if !ok {
			continue // an allocation row under -race
		}
		if v != want {
			t.Errorf("%s: %v, want %v", name, v, want)
		}
	}
}

// shedCounts routes uploads to a shard that sheds every upload with
// Retry-After and serves every lookup, and counts the shard requests one
// upload costs and the routed lookups refused after three of them.
func shedCounts(t *testing.T, got map[string]float64) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.RouteLookup {
			api.WriteJSON(w, http.StatusOK, []api.LookupResult{})
			return
		}
		api.WriteShed(w, errors.New("upload family full"), time.Millisecond)
	}))
	t.Cleanup(shard.Close)
	up := &upstreamCounter{}
	up.reset()
	rt, err := NewRouter(RouterOptions{Peers: []Peer{{ID: "a", URL: shard.URL}}, Retry: fastPolicy(), HTTP: up})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	serve := func(method, path string, body []byte) int {
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	report, _ := json.Marshal(api.Report{Vehicle: "veh-1", Segment: "road-1", APs: []api.APReport{{X: 1, Y: 1, Credit: 1}}})
	for i := 0; i < 3; i++ {
		serve(http.MethodPost, api.RouteReports, report)
		if i == 0 {
			got["upstream/shed upload"] = float64(up.requests[api.RouteReports])
		}
	}
	got["refused lookups/10 after 3 shed uploads"] = 0
	for i := 0; i < 10; i++ {
		if serve(http.MethodGet, api.RouteLookup+"?"+e2eLookupQuery, nil) != http.StatusOK {
			got["refused lookups/10 after 3 shed uploads"]++
		}
	}
}

// inProcessShards is a router transport that serves each request with the
// addressed shard's handler on the calling goroutine: two shards in this
// process, reached without a network stack, so an allocation count is the
// router's work and the owning shards' and nothing of a socket's.
type inProcessShards map[string]http.Handler // URL host → shard

func (d inProcessShards) Do(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	d[req.URL.Host].ServeHTTP(rec, req)
	return rec.Result(), nil
}

// wantRouterHandlerAllocs is what one request allocates through a warmed
// router with everything the router binary attaches on the request path —
// the tracer at sample rate 1, metrics, admission control and its debug
// handler beside the API — in front of two in-memory shards, served in
// process. The count covers both tiers: the router's hop and the shards'
// handling (an upload is stored by its owner, a lookup answered by both).
// An upload is one JSON report, a lookup a rectangle over the whole
// fixture; the request and its recorder are built outside the count.
var wantRouterHandlerAllocs = map[string]float64{
	"upload": 167,
	"lookup": 254,
}

func TestCountsRouterHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	body, err := json.Marshal(api.Report{
		Vehicle: "veh-1", Segment: "road-1",
		APs: []api.APReport{{X: 100, Y: 1, Credit: 1}, {X: 150, Y: 2, Credit: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	newReq := map[string]func() *http.Request{
		"upload": func() *http.Request {
			return httptest.NewRequest(http.MethodPost, api.RouteReports, bytes.NewReader(body))
		},
		"lookup": func() *http.Request {
			return httptest.NewRequest(http.MethodGet, api.RouteLookup+"?"+e2eLookupQuery, nil)
		},
	}
	for name, want := range wantRouterHandlerAllocs {
		t.Run(name, func(t *testing.T) {
			members := []string{"a", "b"}
			shards := inProcessShards{}
			var peers []Peer
			for _, id := range members {
				host := "shard-" + id
				shards[host] = server.New(server.NewStore(e2eRadius), server.WithCluster(server.ClusterOptions{Self: id, Members: members}))
				peers = append(peers, Peer{ID: id, URL: "http://" + host})
			}
			reg := obs.NewRegistry()
			tracer := trace.NewTracer(trace.Config{SampleRate: 1})
			rt, err := NewRouter(RouterOptions{Peers: peers, Retry: fastPolicy(), HTTP: shards, Registry: reg, Overload: &overload.Options{}})
			if err != nil {
				t.Fatal(err)
			}
			mux := http.NewServeMux()
			mux.Handle("/", rt)
			front.ServeDebug(mux, rt.DebugHandler(tracer.Store(), obs.NewHealth()))
			handler := WithTracer(tracer, mux)
			serve := func(req *http.Request, rec *httptest.ResponseRecorder) {
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
					t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
				}
			}
			for _, rep := range e2eReports() {
				b, _ := json.Marshal(rep)
				serve(httptest.NewRequest(http.MethodPost, api.RouteReports, bytes.NewReader(b)), httptest.NewRecorder())
			}
			serve(httptest.NewRequest(http.MethodPost, api.RouteAggregate, nil), httptest.NewRecorder())
			// Warm every lazily built series and buffer, and fill the trace
			// store's ring, before counting.
			for range 2 * trace.DefaultCapacity {
				serve(newReq[name](), httptest.NewRecorder())
			}
			reqs := make([]*http.Request, runs+1)
			recs := make([]*httptest.ResponseRecorder, runs+1)
			for i := range reqs {
				reqs[i], recs[i] = newReq[name](), httptest.NewRecorder()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			i := 0
			got := testing.AllocsPerRun(runs, func() {
				serve(reqs[i], recs[i])
				i++
			})
			if got != want {
				t.Errorf("%s: %v allocs per request, want %v", name, got, want)
			}
		})
	}
}

// BenchmarkRouterBatch posts a 500-frame binary batch through a router to
// two in-memory shards, all over loopback HTTP: the client's whole batch
// round trip, both tiers' work included. Every iteration's keys are new, so
// the shards store rather than replay.
func BenchmarkRouterBatch(b *testing.B) {
	const size = 500
	b.Run(fmt.Sprint(size), func(b *testing.B) {
		_, base := newCountsCluster(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			body := countsBatch(b, i, size)
			b.StartTimer()
			postBatch(b, base, body, size)
		}
	})
}

// TestCountsGoroutinesAfterClose is the leak row: a shard on a data
// directory, with admission control and its probe loop, and a router in
// front of it with its own admission, assembled as the binaries assemble
// them, serve uploads, a batch, a lookup, a cycle and a reconcile. Once both
// listeners and the store are closed and the context is cancelled, the
// process is back to the goroutines it started with.
func TestCountsGoroutinesAfterClose(t *testing.T) {
	start := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	store, _, err := server.OpenStore(e2eRadius, server.StorageOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	shardReg := obs.NewRegistry()
	srv := server.New(store,
		server.WithMetrics(server.NewMetrics(shardReg)),
		server.WithOverload(overload.Options{}),
		server.WithCluster(server.ClusterOptions{Self: "a", Members: []string{"a"}}))
	go srv.Overload().Controller().Run(ctx)
	shardTS := httptest.NewServer(srv)

	routerReg := obs.NewRegistry()
	rt, err := NewRouter(RouterOptions{
		Peers:    []Peer{{ID: "a", URL: shardTS.URL}},
		Registry: routerReg,
		Overload: &overload.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt)

	if _, err := rt.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	postReports(t, routerTS.URL, e2eReports(), "leak")
	postBatch(t, routerTS.URL, countsBatch(t, 0, 32), 32)
	for _, req := range []struct{ method, path string }{
		{http.MethodPost, api.RouteAggregate},
		{http.MethodGet, api.RouteLookup + "?xmin=-1000&ymin=-1000&xmax=1000&ymax=1000"},
	} {
		r, _ := http.NewRequest(req.method, routerTS.URL+req.path, nil)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", req.method, req.path, resp.StatusCode)
		}
	}

	routerTS.Close()
	shardTS.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		var dump strings.Builder
		_ = pprof.Lookup("goroutine").WriteTo(&dump, 1)
		t.Fatalf("%d goroutines 5 s after close, %d before the shard and router started:\n%s", n, start, dump.String())
	}
}
