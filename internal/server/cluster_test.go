package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/obs"
)

// segmentOwnedBy returns a segment name the {a,b} default ring assigns to
// the wanted member.
func segmentOwnedBy(t *testing.T, members []string, want string) string {
	t.Helper()
	rg := ring.New(members, 0)
	for i := 0; i < 10000; i++ {
		seg := "seg-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + "-" + itoa(i)
		if rg.Owner(seg) == want {
			return seg
		}
	}
	t.Fatalf("no segment owned by %s in 10000 candidates", want)
	return ""
}

func itoa(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}

func postJSONTo(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

func TestMisdirectedUploadRejected(t *testing.T) {
	members := []string{"a", "b"}
	srv := New(NewStore(10), WithCluster(ClusterOptions{Self: "a", Members: members}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ownSeg := segmentOwnedBy(t, members, "a")
	otherSeg := segmentOwnedBy(t, members, "b")

	resp := postJSONTo(t, ts, "/v1/reports", Report{
		Vehicle: "v1", Segment: ownSeg, APs: []APReport{{X: 1, Y: 1, Credit: 1}},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("owned segment: status %d, want 201", resp.StatusCode)
	}

	resp = postJSONTo(t, ts, "/v1/reports", Report{
		Vehicle: "v1", Segment: otherSeg, APs: []APReport{{X: 1, Y: 1, Credit: 1}},
	})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("foreign segment: status %d (%s), want 421", resp.StatusCode, body)
	}
	if got := resp.Header.Get(api.OwnerHeader); got != "b" {
		t.Errorf("%s = %q, want \"b\"", api.OwnerHeader, got)
	}

	// Patterns are ownership-filtered the same way.
	resp = postJSONTo(t, ts, "/v1/patterns", Pattern{Segment: otherSeg, APs: []APReport{{X: 1, Y: 1}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Errorf("foreign pattern: status %d, want 421", resp.StatusCode)
	}
}

// TestMisdirectedFrameBatchEntryWithALongSegment: a 421 whose message, which
// quotes the segment, outgrows a status frame's u16 string is cut to fit on a
// UTF-8 boundary. The rest of the batch is answered as usual, not with a 500
// for every entry.
func TestMisdirectedFrameBatchEntryWithALongSegment(t *testing.T) {
	members := []string{"a", "b"}
	store := NewStore(10)
	ts := httptest.NewServer(New(store, WithCluster(ClusterOptions{Self: "a", Members: members})))
	defer ts.Close()
	rg := ring.New(members, 0)
	var long string
	for i := 0; long == ""; i++ {
		// 65,535 bytes of segment, the most a frame carries; quoted in a
		// sentence, 65,567 bytes of message, whose 65,535th byte opens an 'é'.
		if seg := itoa(i%10) + strings.Repeat("é", 32767); rg.Owner(seg) == "b" {
			long = seg
		}
	}
	body, err := EncodeReportFrame(nil, "far", Report{Vehicle: "v", Segment: long})
	if err != nil {
		t.Fatal(err)
	}
	if body, err = EncodeReportFrame(body, "near", Report{Vehicle: "v", Segment: segmentOwnedBy(t, members, "a")}); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+api.RouteReportsBatch, bytes.NewReader(body))
	req.Header.Set("Content-Type", FrameContentType)
	req.Header.Set("Accept", FrameContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	answer, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", resp.StatusCode, answer)
	}
	results, err := DecodeBatchStatusFrame(answer)
	if err != nil {
		t.Fatal(err)
	}
	full := fmt.Sprintf("segment %q is owned by shard %q", long, "b")
	if len(results) != 2 || results[0].Status != http.StatusMisdirectedRequest || results[0].Owner != "b" || results[1].Status != http.StatusCreated {
		t.Fatalf("answered %d statuses: %+v", len(results), results)
	}
	if msg := results[0].Error; len(msg) != 65534 || !utf8.ValidString(msg) || !strings.HasPrefix(full, msg) {
		t.Fatalf("the 421's message is %d bytes (valid UTF-8 %v) of the %d-byte %.40q…, want the first 65534",
			len(msg), utf8.ValidString(msg), len(full), full)
	}
	if _, _, n := store.Counts(); n != 1 {
		t.Fatalf("stored %d reports, want the one the shard owns", n)
	}
}

func TestClusterRoutesAbsentWithoutCluster(t *testing.T) {
	ts := httptest.NewServer(New(NewStore(10)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/cluster/digest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("digest without cluster: status %d, want 404", resp.StatusCode)
	}
}

// TestClusterMembersBodyIsCapped holds the members POST to the cap of every
// other JSON write route: an oversized body answers 413, counts as a capped
// body and installs nothing.
func TestClusterMembersBodyIsCapped(t *testing.T) {
	reg := obs.NewRegistry()
	members := []string{"a", "b"}
	ts := httptest.NewServer(New(NewStore(10), WithMetrics(NewMetrics(reg)),
		WithCluster(ClusterOptions{Self: "a", Members: members})))
	defer ts.Close()

	huge := strings.Repeat("x", api.DefaultMaxBodyBytes)
	resp := postJSONTo(t, ts, api.RouteClusterMembers, api.MembersRequest{Members: []string{"a", huge}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized members POST: status %d, want 413", resp.StatusCode)
	}
	if got := reg.SumCounters("crowdwifi_server_body_limit_rejections_total", nil); got != 1 {
		t.Fatalf("body-limit rejections = %v, want 1", got)
	}
	resp, err := http.Get(ts.URL + api.RouteClusterMembers)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct{ Members []string }
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if strings.Join(view.Members, ",") != "a,b" {
		t.Fatalf("members after a refused POST = %v, want [a b]", view.Members)
	}
}

func TestSegmentDigests(t *testing.T) {
	ctx := context.Background()
	s := NewStore(10)
	if err := s.AddReport(Report{Vehicle: "v", Segment: "s1", APs: []APReport{{X: 1, Y: 1, Credit: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddReport(Report{Vehicle: "v", Segment: "s1", APs: []APReport{{X: 50, Y: 1, Credit: 1}}}); err != nil {
		t.Fatal(err)
	}
	id := addPattern(t, s, "s2", []APReport{{X: 2, Y: 2}})
	if err := s.AddLabels([]Label{{Vehicle: "v", TaskID: id, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateCycleContext(ctx); err != nil {
		t.Fatal(err)
	}
	d := s.SegmentDigests()
	if d["s1"].Reports != 2 || d["s1"].Fused == 0 || d["s1"].FusedDigest == "" {
		t.Errorf("s1 digest = %+v", d["s1"])
	}
	if d["s2"].Patterns != 1 || d["s2"].Labels != 1 {
		t.Errorf("s2 digest = %+v", d["s2"])
	}
	if !d["s1"].HasData() {
		t.Error("s1 should have data")
	}
	// Patterns and labels alone are residue, not drift.
	if d["s2"].HasData() {
		t.Errorf("s2 (patterns+labels only) should not count as data: %+v", d["s2"])
	}
}

// TestSliceApplyIsIdempotentAndRemapsPatternIDs exercises the rebalance
// receive path: applying the same move twice dedupes every entry, and labels
// follow their patterns to the receiver's dense ids.
func TestSliceApplyIsIdempotentAndRemapsPatternIDs(t *testing.T) {
	source := NewStore(10)
	if err := source.AddReport(Report{Vehicle: "v", Segment: "s1", APs: []APReport{{X: 1, Y: 1, Credit: 1}}}); err != nil {
		t.Fatal(err)
	}
	pid := addPattern(t, source, "s1", []APReport{{X: 2, Y: 2}})
	if err := source.AddLabels([]Label{{Vehicle: "v", TaskID: pid, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	move := moveOf(t, source, "src", "s1")

	// The receiver already has a pattern, so the incoming pattern cannot
	// keep the source's id 0.
	recvStore := NewStore(10)
	addPattern(t, recvStore, "other", []APReport{{X: 9, Y: 9}})
	recv := New(recvStore, WithCluster(ClusterOptions{Self: "dst", Members: []string{"dst"}}))
	ts := httptest.NewServer(recv)
	defer ts.Close()

	apply := func() api.SliceStats {
		t.Helper()
		resp := postMove(t, ts, move)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("apply: status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get(api.OwnerHeader); got != "dst" {
			t.Errorf("%s = %q, want \"dst\"", api.OwnerHeader, got)
		}
		var stats api.SliceStats
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats
	}

	first := apply()
	if first.Reports != 1 || first.Patterns != 1 || first.Labels != 1 || first.Deduped != 0 {
		t.Fatalf("first apply = %+v", first)
	}
	second := apply()
	if second.Reports != 0 || second.Patterns != 0 || second.Labels != 0 || second.Deduped != 3 {
		t.Fatalf("second apply = %+v, want everything deduped", second)
	}

	// The migrated label must reference the receiver-side pattern id.
	d := recvStore.SegmentDigests()
	if d["s1"].Patterns != 1 || d["s1"].Labels != 1 || d["s1"].Reports != 1 {
		t.Fatalf("receiver s1 digest = %+v", d["s1"])
	}
	if c := recvStore.capture(); c.labels[0].TaskID != 1 || c.patterns[1].Segment != "s1" {
		t.Fatalf("the moved label names pattern %d of %+v", c.labels[0].TaskID, c.patterns)
	}
}

func TestDropSegmentsPersistsAcrossReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, _, err := OpenStore(10, StorageOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range []string{"keep", "drop"} {
		if err := s.AddReport(Report{Vehicle: "v", Segment: seg, APs: []APReport{{X: 1, Y: 1, Credit: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AggregateCycleContext(ctx); err != nil {
		t.Fatal(err)
	}
	n, err := s.DropSegments(ctx, []string{"drop"})
	if err != nil || n != 1 {
		t.Fatalf("DropSegments = %d, %v", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, _, err := OpenStore(10, StorageOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	d := reopened.SegmentDigests()
	if d["keep"].Reports != 1 {
		t.Errorf("keep digest = %+v", d["keep"])
	}
	if d["drop"].HasData() {
		t.Errorf("dropped segment survived reopen: %+v", d["drop"])
	}
}

// TestLookupRejectsDegenerateRects pins the validation added for swapped
// corners: geo.Rect would silently normalize them and answer the wrong
// query, so the handler must 400 instead.
func TestLookupRejectsDegenerateRects(t *testing.T) {
	store := NewStore(10)
	if err := store.AddReport(Report{Vehicle: "v", Segment: "s", APs: []APReport{{X: 5, Y: 5, Credit: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Aggregate(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store))
	defer ts.Close()

	for _, tc := range []struct {
		name  string
		query string
		want  int
	}{
		{"valid rect", "xmin=0&ymin=0&xmax=10&ymax=10", http.StatusOK},
		{"point rect", "xmin=5&ymin=5&xmax=5&ymax=5", http.StatusOK},
		{"xmin greater than xmax", "xmin=10&ymin=0&xmax=0&ymax=10", http.StatusBadRequest},
		{"ymin greater than ymax", "xmin=0&ymin=10&xmax=10&ymax=0", http.StatusBadRequest},
		{"both swapped", "xmin=10&ymin=10&xmax=0&ymax=0", http.StatusBadRequest},
		{"missing param", "xmin=0&ymin=0&xmax=10", http.StatusBadRequest},
		{"non-numeric", "xmin=abc&ymin=0&xmax=10&ymax=10", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + "/v1/lookup?" + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, body, tc.want)
			}
			if tc.want == http.StatusBadRequest && tc.name != "missing param" && tc.name != "non-numeric" {
				if !strings.Contains(string(body), "degenerate rect") {
					t.Errorf("error body %q should name the degenerate rect", body)
				}
			}
		})
	}
}
