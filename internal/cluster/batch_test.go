package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/server"
)

// batchShardHandler answers a batch with one 201 per entry, stamping each
// status's Error field with the shard's id — a marker the merge tests read
// back to prove which shard answered which entry.
func batchShardHandler(t *testing.T, id string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		results := []api.BatchEntryStatus{}
		for _, e := range decodeBatchBody(t, r) {
			results = append(results, api.BatchEntryStatus{Key: e.Key, Status: http.StatusCreated, Error: id})
		}
		writeStatusFrame(t, w, results)
	}
}

// writeStatusFrame answers a fake shard's batch as a shard does: one status
// frame.
func writeStatusFrame(t *testing.T, w http.ResponseWriter, results []api.BatchEntryStatus) {
	frame, err := api.EncodeBatchStatusFrame(results)
	if err != nil {
		t.Errorf("fake shard's batch answer: %v", err)
	}
	w.Header().Set("Content-Type", api.FrameContentType)
	_, _ = w.Write(frame)
}

func decodeBatchBody(t *testing.T, r *http.Request) []api.ReportFrame {
	t.Helper()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Errorf("reading batch body: %v", err)
		return nil
	}
	frames, err := api.SplitReportFrames(body)
	if err != nil {
		t.Errorf("SplitReportFrames: %v", err)
	}
	return frames
}

// batchFrames is a frame batch of one report per segment, keyed "cbk-i".
func batchFrames(t *testing.T, segments []string) (body []byte, keys []string) {
	t.Helper()
	for i, seg := range segments {
		keys = append(keys, fmt.Sprintf("cbk-%d", i))
		var err error
		body, err = api.EncodeReportFrame(body, keys[i], api.Report{Vehicle: "v1", Segment: seg,
			APs: []api.APReport{{X: float64(i), Y: 2, Credit: 1}}})
		if err != nil {
			t.Fatal(err)
		}
	}
	return body, keys
}

// postFrameBatch posts a frame batch that asks for a JSON answer, checks the
// answer is a 200 status frame whatever the client asked for, and decodes
// it.
func postFrameBatch(t *testing.T, base string, body []byte) []api.BatchEntryStatus {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, base+api.RouteReportsBatch, bytes.NewReader(body))
	req.Header.Set("Content-Type", api.FrameContentType)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.FrameContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, api.FrameContentType)
	}
	results, err := api.DecodeBatchStatusFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestBatchSplitByOwnershipAndPositionalMerge: one client batch spanning
// both shards' segments splits into exactly one sub-batch per owner, and the
// merged status vector is in the client's original order regardless of which
// shard answered first.
func TestBatchSplitByOwnershipAndPositionalMerge(t *testing.T) {
	a := newFakeShard(t, batchShardHandler(t, "a"))
	b := newFakeShard(t, batchShardHandler(t, "b"))
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", b.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	segments := make([]string, 6)
	for i := range segments {
		segments[i] = fmt.Sprintf("merge-seg-%d", i)
	}
	rg := ring.New([]string{"a", "b"}, 0)
	body, keys := batchFrames(t, segments)
	results := postFrameBatch(t, ts.URL, body)
	if len(results) != len(segments) {
		t.Fatalf("results = %d, want %d", len(results), len(segments))
	}
	ownsSome := map[string]bool{}
	for i, st := range results {
		owner := rg.Owner(segments[i])
		ownsSome[owner] = true
		if st.Key != keys[i] {
			t.Errorf("result %d key = %q, want %q (request order)", i, st.Key, keys[i])
		}
		if st.Status != http.StatusCreated {
			t.Errorf("result %d status = %d, want 201", i, st.Status)
		}
		if st.Error != owner {
			t.Errorf("result %d answered by shard %q, ring owner is %q", i, st.Error, owner)
		}
	}
	if !ownsSome["a"] || !ownsSome["b"] {
		t.Fatal("workload too small: one shard owns every segment, split not exercised")
	}
	for id, f := range map[string]*fakeShard{"a": a, "b": b} {
		if got := f.calls(api.RouteReportsBatch); got != 1 {
			t.Errorf("shard %s got %d batch calls, want exactly 1 sub-batch", id, got)
		}
		for _, e := range decodeBatchBody(t, recordedAsRequest(t, f)) {
			if rg.Owner(e.Report.Segment) != id {
				t.Errorf("shard %s received segment %q owned by %q",
					id, e.Report.Segment, rg.Owner(e.Report.Segment))
			}
		}
	}
}

// recordedAsRequest replays a fake shard's sole recorded batch request so
// decodeBatchBody can parse it.
func recordedAsRequest(t *testing.T, f *fakeShard) *http.Request {
	t.Helper()
	for _, rec := range f.recorded() {
		if rec.Path != api.RouteReportsBatch {
			continue
		}
		r := httptest.NewRequest(rec.Method, api.RouteReportsBatch, bytes.NewReader(rec.Body))
		r.Header = rec.Header
		return r
	}
	t.Fatal("no recorded batch request")
	return nil
}

// TestBatchReroutesEntriesOn421BitIdentical: a shard that answers 421 with
// an owner gets its entries re-forwarded once to that owner — and on the
// binary path the re-routed frames are the client's exact bytes.
func TestBatchReroutesEntriesOn421BitIdentical(t *testing.T) {
	a := newFakeShard(t, func(w http.ResponseWriter, r *http.Request) {
		var results []api.BatchEntryStatus
		for _, e := range decodeBatchBody(t, r) {
			results = append(results, api.BatchEntryStatus{
				Key: e.Key, Status: http.StatusMisdirectedRequest, Owner: "b",
				Error: "mid-rebalance: segment moved",
			})
		}
		writeStatusFrame(t, w, results)
	})
	b := newFakeShard(t, batchShardHandler(t, "b"))
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", b.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	// Pick segments the ring routes to shard a, so the first pass lands
	// there and every entry must bounce to b.
	rg := ring.New([]string{"a", "b"}, 0)
	var segments []string
	for i := 0; len(segments) < 3; i++ {
		seg := fmt.Sprintf("bounce-seg-%d", i)
		if rg.Owner(seg) == "a" {
			segments = append(segments, seg)
		}
	}
	body, keys := batchFrames(t, segments)
	results := postFrameBatch(t, ts.URL, body)
	if len(results) != len(keys) {
		t.Fatalf("results = %d, want %d", len(results), len(keys))
	}
	for i, st := range results {
		if st.Key != keys[i] || st.Status != http.StatusCreated {
			t.Errorf("result %d = %+v, want key %q status 201 after re-route", i, st, keys[i])
		}
	}
	if a.calls(api.RouteReportsBatch) != 1 || b.calls(api.RouteReportsBatch) != 1 {
		t.Fatalf("calls a=%d b=%d, want one first-pass and one re-route", a.calls(api.RouteReportsBatch), b.calls(api.RouteReportsBatch))
	}
	// The re-routed body is the client's frames, verbatim.
	for _, rec := range b.recorded() {
		if rec.Path == api.RouteReportsBatch && !bytes.Equal(rec.Body, body) {
			t.Fatal("re-routed binary body differs from the client's bytes")
		}
	}
}

// TestBatchDeadShardFailsOnlyItsEntries: an unreachable owner turns its
// entries into per-entry 502s while the healthy shard's entries store — the
// vector stays full-length and ordered.
func TestBatchDeadShardFailsOnlyItsEntries(t *testing.T) {
	a := newFakeShard(t, batchShardHandler(t, "a"))
	b := newFakeShard(t, batchShardHandler(t, "b"))
	b.ts.Close() // b is down before any traffic
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}, {"b", b.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	segments := make([]string, 6)
	for i := range segments {
		segments[i] = fmt.Sprintf("dead-seg-%d", i)
	}
	rg := ring.New([]string{"a", "b"}, 0)
	body, keys := batchFrames(t, segments)
	results := postFrameBatch(t, ts.URL, body) // 200: failure is per entry
	if len(results) != len(keys) {
		t.Fatalf("results = %d, want %d", len(results), len(keys))
	}
	deadHit, liveHit := false, false
	for i, st := range results {
		if st.Key != keys[i] {
			t.Errorf("result %d key = %q, want %q", i, st.Key, keys[i])
		}
		switch rg.Owner(segments[i]) {
		case "b":
			deadHit = true
			if st.Status != http.StatusBadGateway {
				t.Errorf("dead shard's entry %d status = %d, want 502", i, st.Status)
			}
		default:
			liveHit = true
			if st.Status != http.StatusCreated {
				t.Errorf("live shard's entry %d status = %d, want 201", i, st.Status)
			}
		}
	}
	if !deadHit || !liveHit {
		t.Fatal("workload did not span both shards")
	}
}

// TestBatchEmptyVectorContractAtRouter: the router's merged vector keeps the
// []-not-null contract for an empty batch, and a JSON body, even an empty
// one, answers 415 without reaching a shard.
func TestBatchEmptyVectorContractAtRouter(t *testing.T) {
	a := newFakeShard(t, batchShardHandler(t, "a"))
	rt := newTestRouter(t, []Peer{{"a", a.ts.URL}}, nil)
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/reports/batch", "application/json",
		strings.NewReader(`{"entries":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("empty JSON batch: status %d, want 415", resp.StatusCode)
	}

	if results := postFrameBatch(t, ts.URL, nil); results == nil || len(results) != 0 {
		t.Fatalf("empty binary batch decodes to %#v, want non-nil empty slice", results)
	}
	if a.calls(api.RouteReportsBatch) != 0 {
		t.Fatalf("empty batch reached the shard %d times, want 0", a.calls(api.RouteReportsBatch))
	}
}

// TestCrossCodecLookupIdenticalThroughRouter is the codec acceptance proof:
// the same workload served through the sharded router answers /v1/lookup
// byte-identically to a single server on the JSON path, and the binary frame
// answer decodes to exactly the same results.
func TestCrossCodecLookupIdenticalThroughRouter(t *testing.T) {
	members := []string{"a", "b"}
	a := newE2EShard(t, "a", members)
	b := newE2EShard(t, "b", members)
	_, routerTS := newE2ERouter(t, a, b)

	single := httptest.NewServer(server.New(server.NewStore(e2eRadius)))
	defer single.Close()

	reports := e2eReports()
	postReports(t, routerTS.URL, reports, "codec-cluster")
	postReports(t, single.URL, reports, "codec-single")
	aggregate(t, routerTS.URL)
	aggregate(t, single.URL)

	_, routerJSON := lookupBytes(t, routerTS.URL)
	_, singleJSON := lookupBytes(t, single.URL)
	if !bytes.Equal(routerJSON, singleJSON) {
		t.Fatalf("JSON lookup through the router diverges from the single node:\nrouter: %s\nsingle: %s",
			routerJSON, singleJSON)
	}
	if len(routerJSON) <= len("[]\n") {
		t.Fatal("degenerate comparison: empty fused map")
	}

	var want []api.LookupResult
	if err := json.Unmarshal(routerJSON, &want); err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]string{"router": routerTS.URL, "single": single.URL} {
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/lookup?"+e2eLookupQuery, nil)
		req.Header.Set("Accept", api.FrameContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s frame lookup: %v", name, err)
		}
		frame, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != api.FrameContentType {
			t.Fatalf("%s frame lookup Content-Type = %q", name, ct)
		}
		got, err := api.DecodeLookupFrame(frame)
		if err != nil {
			t.Fatalf("%s DecodeLookupFrame: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s binary lookup diverges from the JSON answer", name)
		}
	}
}

// TestBatchOverlongJSONKeyAnsweredLikeAShard: a JSON batch, here one with a
// key no frame can carry, gets from the router the 415 a single server
// gives it, byte for byte, and nothing of it is stored on either tier.
func TestBatchOverlongJSONKeyAnsweredLikeAShard(t *testing.T) {
	_, routerURL := newCountsCluster(t)
	single := httptest.NewServer(server.New(server.NewStore(e2eRadius)))
	defer single.Close()

	rep := api.Report{Vehicle: "v1", Segment: "long-key-seg", APs: []api.APReport{{X: 1, Y: 2, Credit: 1}}}
	body, err := json.Marshal(map[string]any{"entries": []map[string]any{
		{"key": "lk-0", "report": rep},
		{"key": strings.Repeat("k", 70_000), "report": rep},
		{"key": "lk-2", "report": rep},
	}})
	if err != nil {
		t.Fatal(err)
	}
	answers := map[string]string{}
	for name, base := range map[string]string{"router": routerURL, "single": single.URL} {
		resp, err := http.Post(base+api.RouteReportsBatch, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("%s: status %d, want 415", name, resp.StatusCode)
		}
		answers[name] = string(raw)
	}
	if answers["router"] != answers["single"] {
		t.Fatalf("router answers %q, single server %q", answers["router"], answers["single"])
	}
	for name, base := range map[string]string{"router": routerURL, "single": single.URL} {
		aggregate(t, base)
		if _, got := lookupBytes(t, base); string(got) != "[]\n" {
			t.Errorf("%s: a refused JSON batch left fused APs: %s", name, got)
		}
	}
}

// TestBatchBodyLimitsOnBothTiers: on the router and on a shard, a batch
// declaring more than the body limit is refused with a 413 before its body
// is read, and one that ends short of its declared length is a 400, not a
// wait for bytes that will not come.
func TestBatchBodyLimitsOnBothTiers(t *testing.T) {
	_, routerURL := newCountsCluster(t)
	shard := httptest.NewServer(server.New(server.NewStore(e2eRadius)))
	defer shard.Close()

	// send writes a batch request declaring declared bytes, then body, and
	// half-closes the connection if asked; the answer must come within 5 s.
	send := func(t *testing.T, base string, declared int64, body []byte, halfClose bool) int {
		t.Helper()
		u, _ := url.Parse(base)
		conn, err := net.Dial("tcp", u.Host)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
			api.RouteReportsBatch, u.Host, api.FrameContentType, declared)
		if _, err := conn.Write(append([]byte(head), body...)); err != nil {
			t.Fatal(err)
		}
		if halfClose {
			_ = conn.(*net.TCPConn).CloseWrite()
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("no answer: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	frame, err := api.EncodeReportFrame(nil, "bl-0", api.Report{Vehicle: "v1", Segment: "limit-seg",
		APs: []api.APReport{{X: 1, Y: 2, Credit: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for tier, base := range map[string]string{"router": routerURL, "shard": shard.URL} {
		t.Run(tier, func(t *testing.T) {
			if got := send(t, base, api.DefaultBatchMaxBodyBytes+1, nil, false); got != http.StatusRequestEntityTooLarge {
				t.Errorf("declared over the limit: status %d, want 413", got)
			}
			if got := send(t, base, 1<<30, frame, false); got != http.StatusRequestEntityTooLarge {
				t.Errorf("declared 1 GiB: status %d, want 413", got)
			}
			if got := send(t, base, int64(len(frame)+100), frame, true); got != http.StatusBadRequest {
				t.Errorf("body short of its declared length: status %d, want 400", got)
			}
			if got := send(t, base, int64(len(frame)), frame, false); got != http.StatusOK {
				t.Errorf("body of its declared length: status %d, want 200", got)
			}
		})
	}
}
