package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/server"
)

const e2eRadius = 5.0

// e2eShard is one in-process durable shard: a WAL-backed store plus an
// HTTP server carrying the cluster surface.
type e2eShard struct {
	id    string
	dir   string
	store *server.Store
	ts    *httptest.Server
}

func newE2EShard(t *testing.T, id string, members []string, opts ...server.Option) *e2eShard {
	t.Helper()
	dir := t.TempDir()
	store, _, err := server.OpenStore(e2eRadius, server.StorageOptions{Dir: dir})
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", id, err)
	}
	srv := server.New(store, append(opts, server.WithCluster(server.ClusterOptions{
		Self: id, Members: members,
	}))...)
	sh := &e2eShard{id: id, dir: dir, store: store, ts: httptest.NewServer(srv)}
	t.Cleanup(func() {
		sh.ts.Close()
		_ = sh.store.Close()
	})
	return sh
}

// kill stops the shard's HTTP server and closes its store, leaving the WAL
// directory on disk — the crash the rebalance path recovers from.
func (sh *e2eShard) kill() {
	sh.ts.Close()
	_ = sh.store.Close()
}

// e2eReports builds a deterministic reports-only workload: several vehicles
// across several segments, APs spread beyond the merge radius so fusion
// yields multiple entries per segment. Reports-only keeps reliability
// uniform, which is what makes single-node and sharded fusion comparable.
func e2eReports() []api.Report {
	var out []api.Report
	for i := 0; i < 48; i++ {
		seg := fmt.Sprintf("road-%d", i%8)
		out = append(out, api.Report{
			Vehicle: fmt.Sprintf("veh-%d", i%5),
			Segment: seg,
			APs: []api.APReport{
				{X: float64(i%8)*100 + float64(i%3), Y: float64(i % 7), Credit: 1},
				{X: float64(i%8)*100 + 50, Y: float64(i%4) * 2, Credit: 1},
			},
		})
	}
	return out
}

// postReports uploads reports serially through base, one idempotency key
// per report, and returns how many were acked 201.
func postReports(t *testing.T, base string, reports []api.Report, keyPrefix string) int {
	t.Helper()
	acked := 0
	for i, rep := range reports {
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/reports", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.IdempotencyKeyHeader, fmt.Sprintf("%s-%d", keyPrefix, i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("report %d: status %d: %s", i, resp.StatusCode, respBody)
		}
		acked++
	}
	return acked
}

func aggregate(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/aggregate", "application/json", nil)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate: status %d: %s", resp.StatusCode, body)
	}
}

const e2eLookupQuery = "xmin=-1000&ymin=-1000&xmax=10000&ymax=10000"

func lookupBytes(t *testing.T, base string) (http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/lookup?" + e2eLookupQuery)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup: status %d: %s", resp.StatusCode, body)
	}
	return resp.Header, body
}

func newE2ERouter(t *testing.T, shards ...*e2eShard) (*Router, *httptest.Server) {
	t.Helper()
	var peers []Peer
	for _, sh := range shards {
		peers = append(peers, Peer{ID: sh.id, URL: sh.ts.URL})
	}
	rt, err := NewRouter(RouterOptions{Peers: peers, Retry: fastPolicy()})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

// TestThreeShardLookupByteIdenticalToSingleNode is the tentpole's first
// proof: the same reports-only workload, uploaded through a 3-shard router
// and through a single crowd-server, aggregated and queried over the full
// rect, produces byte-identical lookup bodies.
func TestThreeShardLookupByteIdenticalToSingleNode(t *testing.T) {
	members := []string{"a", "b", "c"}
	a := newE2EShard(t, "a", members)
	b := newE2EShard(t, "b", members)
	c := newE2EShard(t, "c", members)
	_, routerTS := newE2ERouter(t, a, b, c)

	single := httptest.NewServer(server.New(server.NewStore(e2eRadius)))
	defer single.Close()

	reports := e2eReports()
	postReports(t, routerTS.URL, reports, "cluster")
	postReports(t, single.URL, reports, "single")

	aggregate(t, routerTS.URL)
	aggregate(t, single.URL)

	_, clusterBody := lookupBytes(t, routerTS.URL)
	_, singleBody := lookupBytes(t, single.URL)
	if !bytes.Equal(clusterBody, singleBody) {
		t.Fatalf("cluster lookup diverges from single node:\ncluster: %s\nsingle:  %s",
			clusterBody, singleBody)
	}
	if len(clusterBody) <= len("[]\n") {
		t.Fatalf("degenerate comparison: empty fused map (%q)", clusterBody)
	}

	// The data really is sharded: every shard owns a non-empty slice, and
	// no shard holds data outside its ownership.
	for _, sh := range []*e2eShard{a, b, c} {
		digests := sh.store.SegmentDigests()
		owned := 0
		for seg, d := range digests {
			if !d.HasData() {
				continue
			}
			owned++
			if got := ringOwner(t, members, seg); got != sh.id {
				t.Errorf("segment %s resident on %s but owned by %s", seg, sh.id, got)
			}
		}
		if owned == 0 {
			t.Errorf("shard %s owns no segments — workload too small for the ring split", sh.id)
		}
	}
}

func ringOwner(t *testing.T, members []string, seg string) string {
	t.Helper()
	rt, err := NewRouter(RouterOptions{
		Peers:   []Peer{{"a", "http://x:1"}, {"b", "http://x:2"}, {"c", "http://x:3"}},
		Members: members,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt.Owner(seg)
}

// clusterView fetches the router's /debug/cluster document.
func clusterView(t *testing.T, rt *Router) ClusterView {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ClusterHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/cluster", nil))
	var view ClusterView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("/debug/cluster: status %d (%v): %s", rec.Code, err, rec.Body.Bytes())
	}
	return view
}

// TestKillOneShardRebalanceAndReconcileRestoreFullMap is the tentpole's
// second proof: kill one of three shards, shrink the membership, stream the
// dead shard's WAL slice to the survivors, inject cross-shard drift, and
// let the reconcile pass repair it — the router's lookup answer returns to
// the pre-kill bytes and no acked report is lost.
func TestKillOneShardRebalanceAndReconcileRestoreFullMap(t *testing.T) {
	ctx := context.Background()
	members := []string{"a", "b", "c"}
	a := newE2EShard(t, "a", members)
	b := newE2EShard(t, "b", members)
	c := newE2EShard(t, "c", members)
	rt, routerTS := newE2ERouter(t, a, b, c)

	reports := e2eReports()
	acked := postReports(t, routerTS.URL, reports, "kill")
	aggregate(t, routerTS.URL)
	_, reference := lookupBytes(t, routerTS.URL)

	// Kill shard c; its WAL directory stays on disk.
	c.kill()

	// Shrink membership through the router: installs the {a,b} ring locally
	// and propagates it to the survivors (c is not contacted).
	resp, err := http.Post(routerTS.URL+"/v1/cluster/members", "application/json",
		strings.NewReader(`{"members":["a","b"]}`))
	if err != nil {
		t.Fatalf("members: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("members: status %d", resp.StatusCode)
	}

	// Recover c's slice from its WAL offline, as a move from c split by the
	// current ring's owners, and post each owner its part.
	parts, err := server.ExportFromDir(c.dir, e2eRadius, "c", rt.Owner)
	if err != nil {
		t.Fatalf("ExportFromDir: %v", err)
	}
	var stats api.SliceStats
	for owner, part := range parts {
		st, err := rt.applyMove(ctx, owner, part)
		if err != nil {
			t.Fatalf("rebalance onto %s: %v", owner, err)
		}
		stats.Add(st)
	}
	if stats.Reports == 0 {
		t.Fatalf("rebalance moved nothing: %+v", stats)
	}

	// Inject deliberate drift: move one of a's owned segments to b wholesale
	// (move + drop), the exact residue a half-finished membership change
	// leaves behind.
	driftSeg := ""
	for seg, d := range a.store.SegmentDigests() {
		if d.HasData() && rt.Owner(seg) == "a" {
			if driftSeg == "" || seg < driftSeg {
				driftSeg = seg
			}
		}
	}
	if driftSeg == "" {
		t.Fatal("no segment on shard a to drift")
	}
	move, err := rt.peerDo(ctx, "a", http.MethodGet, "/v1/cluster/slice", "segments="+driftSeg, "", "", nil)
	if err != nil {
		t.Fatalf("export drift move: %v", err)
	}
	if _, err := rt.applyMove(ctx, "b", move); err != nil {
		t.Fatalf("apply drift move: %v", err)
	}
	if err := rt.peerPostJSON(ctx, "a", "/v1/cluster/drop",
		api.DropRequest{Segments: []string{driftSeg}}, nil); err != nil {
		t.Fatalf("drop drift segment: %v", err)
	}

	// /debug/cluster names exactly that drift, and b does not count the
	// segment among the ones it owns.
	view := clusterView(t, rt)
	if want := []Move{{Segment: driftSeg, From: "b", To: "a"}}; !reflect.DeepEqual(view.Drift, want) {
		t.Fatalf("cluster view drift = %+v, want %+v", view.Drift, want)
	}
	if _, resident := view.Shards["b"].Segments[driftSeg]; !resident {
		t.Fatalf("cluster view does not show %s resident on b", driftSeg)
	}
	for id, sh := range view.Shards {
		owned := 0
		for seg, d := range sh.Segments {
			if d.HasData() && rt.Owner(seg) == id {
				owned++
			}
		}
		if sh.OwnedSegs != owned {
			t.Errorf("shard %s: ownedSegments = %d, want %d (drifted %s counted?)", id, sh.OwnedSegs, owned, driftSeg)
		}
	}

	// Reconcile detects the drifted segment on b and moves it home.
	rep, err := rt.Reconcile(ctx)
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	foundMove := false
	for _, m := range rep.Moves {
		if m.Segment == driftSeg && m.From == "b" && m.To == "a" {
			foundMove = true
		}
	}
	if !foundMove {
		t.Fatalf("reconcile did not repair injected drift %s: %+v", driftSeg, rep.Moves)
	}

	// A second pass on the healed cluster is a no-op.
	rep2, err := rt.Reconcile(ctx)
	if err != nil {
		t.Fatalf("second Reconcile: %v", err)
	}
	if len(rep2.Moves) != 0 {
		t.Fatalf("second reconcile still moving: %+v", rep2.Moves)
	}
	if view := clusterView(t, rt); len(view.Drift) != 0 {
		t.Fatalf("cluster view drift after reconcile = %+v, want none", view.Drift)
	}

	aggregate(t, routerTS.URL)
	hdr, recovered := lookupBytes(t, routerTS.URL)
	if h := hdr.Get(PartialHeader); h != "" {
		t.Fatalf("recovered lookup is partial: %q", h)
	}
	if !bytes.Equal(recovered, reference) {
		t.Fatalf("recovered lookup diverges from pre-kill answer:\nbefore: %s\nafter:  %s",
			reference, recovered)
	}

	// Zero lost acked reports: every 201 the router handed out is resident
	// on exactly one surviving shard.
	total := 0
	for _, sh := range []*e2eShard{a, b} {
		for _, d := range sh.store.SegmentDigests() {
			total += d.Reports
		}
	}
	if total != acked {
		t.Fatalf("report count after recovery = %d, want %d acked", total, acked)
	}
}

// TestKillOneShardPartialLookupBeforeRecovery pins the degraded window's
// contract: between the shard dying and the rebalance, the router still
// answers lookups — partially, with the dead shard named in the header.
func TestKillOneShardPartialLookupBeforeRecovery(t *testing.T) {
	members := []string{"a", "b", "c"}
	a := newE2EShard(t, "a", members)
	b := newE2EShard(t, "b", members)
	c := newE2EShard(t, "c", members)
	_, routerTS := newE2ERouter(t, a, b, c)

	postReports(t, routerTS.URL, e2eReports(), "partial")
	aggregate(t, routerTS.URL)

	c.kill()
	resp, err := http.Get(routerTS.URL + "/v1/lookup?" + e2eLookupQuery)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup during outage: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(PartialHeader); got != "c" {
		t.Fatalf("partial header = %q, want \"c\"", got)
	}
	var results []api.LookupResult
	if err := json.Unmarshal(body, &results); err != nil || len(results) == 0 {
		t.Fatalf("partial lookup body = %q", body)
	}
}
