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
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs"
)

// postKeyed posts body with an Idempotency-Key header.
func postKeyed(t *testing.T, url, key string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(IdempotencyKeyHeader, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestIdempotentReportReplay(t *testing.T) {
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	store := NewStore(10)
	ts := httptest.NewServer(New(store, WithMetrics(metrics)))
	defer ts.Close()

	rep := Report{Vehicle: "veh-1", Segment: "seg", APs: []APReport{{X: 1, Y: 2, Credit: 3}}}
	first := postKeyed(t, ts.URL+"/v1/reports", "veh-1-key-1", rep)
	if first.StatusCode != http.StatusCreated {
		t.Fatalf("first delivery status = %d", first.StatusCode)
	}
	firstBody, _ := io.ReadAll(first.Body)

	// Same key again: the retry of a processed-but-lost response. The
	// server must not store a second report and must replay the original
	// response byte-for-byte.
	second := postKeyed(t, ts.URL+"/v1/reports", "veh-1-key-1", rep)
	if second.StatusCode != http.StatusCreated {
		t.Fatalf("replay status = %d", second.StatusCode)
	}
	if second.Header.Get("Idempotent-Replay") != "true" {
		t.Error("replay missing Idempotent-Replay header")
	}
	secondBody, _ := io.ReadAll(second.Body)
	if !bytes.Equal(firstBody, secondBody) {
		t.Errorf("replayed body %q != original %q", secondBody, firstBody)
	}
	if _, _, reports := store.Counts(); reports != 1 {
		t.Fatalf("stored reports = %d, want 1 (exactly once)", reports)
	}
	if metrics.deduped.Value() != 1 {
		t.Fatalf("deduped metric = %d, want 1", metrics.deduped.Value())
	}

	// A different key is a different logical upload and must be stored.
	third := postKeyed(t, ts.URL+"/v1/reports", "veh-1-key-2", rep)
	if third.StatusCode != http.StatusCreated {
		t.Fatalf("new key status = %d", third.StatusCode)
	}
	if _, _, reports := store.Counts(); reports != 2 {
		t.Fatalf("stored reports = %d, want 2", reports)
	}
}

// TestIdempotentReplaySurvivesHTTPLayerRestart: a completion belongs to the
// store, so a keyed report appended before any Server exists replays from
// every Server later built around that store.
func TestIdempotentReplaySurvivesHTTPLayerRestart(t *testing.T) {
	store := NewStore(10)
	rep := Report{Vehicle: "veh-1", Segment: "seg", APs: []APReport{{X: 1, Y: 2, Credit: 3}}}
	if err := store.AddReportKeyed(context.Background(), "restart-key", rep); err != nil {
		t.Fatal(err)
	}
	for boot := 1; boot <= 2; boot++ {
		ts := httptest.NewServer(New(store))
		resp := postKeyed(t, ts.URL+"/v1/reports", "restart-key", rep)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusCreated || resp.Header.Get("Idempotent-Replay") != "true" ||
			string(body) != "{\"status\":\"stored\"}\n" {
			t.Errorf("boot %d: status %d, Idempotent-Replay %q, body %q; want the stored ack replayed",
				boot, resp.StatusCode, resp.Header.Get("Idempotent-Replay"), body)
		}
		ts.Close()
	}
	if _, _, reports := store.Counts(); reports != 1 {
		t.Fatalf("stored reports = %d, want 1 (exactly once)", reports)
	}
}

// TestIdempotencyHorizonIs4096Keys pins the exactly-once horizon: a store
// remembers its last 4,096 completed keys, so a retry of the oldest of
// exactly 4,096 keyed uploads is still deduplicated, with the canned ack
// replayed. A smaller cache would store the retry a second time.
func TestIdempotencyHorizonIs4096Keys(t *testing.T) {
	const horizon = 4096
	store := NewStore(10)
	ctx := context.Background()
	rep := func(i int) Report {
		return Report{Vehicle: fmt.Sprintf("veh-%d", i), Segment: "seg", APs: []APReport{{X: 1, Y: 2, Credit: 3}}}
	}
	for i := range horizon {
		if err := store.AddReportKeyed(ctx, fmt.Sprintf("key-%d", i), rep(i)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(store))
	defer ts.Close()
	resp := postKeyed(t, ts.URL+"/v1/reports", "key-0", rep(0))
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("Idempotent-Replay") != "true" ||
		string(body) != "{\"status\":\"stored\"}\n" {
		t.Errorf("retry of the oldest key: status %d, Idempotent-Replay %q, body %q; want the stored ack replayed",
			resp.StatusCode, resp.Header.Get("Idempotent-Replay"), body)
	}
	if _, _, reports := store.Counts(); reports != horizon {
		t.Fatalf("stored reports = %d, want %d (the retry must not be stored again)", reports, horizon)
	}
}

func TestIdempotencyDoesNotCacheFailures(t *testing.T) {
	store, ts := newTestServer(t)

	// A report missing its segment is rejected; the key must be released so
	// a corrected retry under the same key can succeed.
	bad := Report{Vehicle: "veh-1"}
	if resp := postKeyed(t, ts.URL+"/v1/reports", "k", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad report status = %d", resp.StatusCode)
	}
	good := Report{Vehicle: "veh-1", Segment: "seg"}
	if resp := postKeyed(t, ts.URL+"/v1/reports", "k", good); resp.StatusCode != http.StatusCreated {
		t.Fatalf("retried report status = %d", resp.StatusCode)
	}
	if _, _, reports := store.Counts(); reports != 1 {
		t.Fatalf("reports = %d, want 1", reports)
	}
}

func TestIdempotentPatternReplayReturnsSameID(t *testing.T) {
	store, ts := newTestServer(t)
	p := Pattern{Segment: "seg", APs: []APReport{{X: 5, Y: 5}}}

	var first, second struct {
		ID int `json:"id"`
	}
	resp := postKeyed(t, ts.URL+"/v1/patterns", "prop-1", p)
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp = postKeyed(t, ts.URL+"/v1/patterns", "prop-1", p)
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if first.ID != second.ID {
		t.Fatalf("replayed pattern id %d != original %d", second.ID, first.ID)
	}
	if patterns, _, _ := store.Counts(); patterns != 1 {
		t.Fatalf("patterns = %d, want 1", patterns)
	}
}

func TestIdemCacheInFlightAndEviction(t *testing.T) {
	c := newIdemCache(2)

	// In-flight: second begin of the same key sees it without a record.
	if seen, _ := c.begin("a"); seen {
		t.Fatal("fresh key reported seen")
	}
	seen, rec := c.begin("a")
	if !seen || rec != nil {
		t.Fatalf("in-flight begin = (%v, %v), want (true, nil)", seen, rec)
	}
	c.complete("a", 201, []byte("ra"))

	// Capacity 2: completing c and d evicts a.
	c.begin("b")
	c.complete("b", 200, []byte("rb"))
	c.begin("d")
	c.complete("d", 200, []byte("rd"))
	if seen, _ := c.begin("a"); seen {
		t.Fatal("evicted key still cached")
	}
	if seen, rec := c.begin("d"); !seen || rec == nil || string(rec.body) != "rd" {
		t.Fatalf("latest key lost: (%v, %+v)", seen, rec)
	}
}

func TestBodyLimitRejectsOversizedReport(t *testing.T) {
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	store := NewStore(10)
	ts := httptest.NewServer(New(store, WithMetrics(metrics)))
	defer ts.Close()

	// One byte over the cap.
	one, _ := json.Marshal(Report{Vehicle: "v", Segment: "x"})
	big := Report{Vehicle: "v", Segment: strings.Repeat("x", api.DefaultMaxBodyBytes+2-len(one))}
	resp := postJSON(t, ts.URL+"/v1/reports", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if metrics.bodyLimited.Value() != 1 {
		t.Fatalf("body limit metric = %d, want 1", metrics.bodyLimited.Value())
	}
	small := Report{Vehicle: "v", Segment: "s"}
	if resp := postJSON(t, ts.URL+"/v1/reports", small); resp.StatusCode != http.StatusCreated {
		t.Fatalf("small report status = %d", resp.StatusCode)
	}
}

func TestTasksCountCapped(t *testing.T) {
	_, ts := newTestServer(t)
	resp := getJSON(t, ts.URL+"/v1/tasks?vehicle=v&count=101", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("count=101 status = %d, want 400", resp.StatusCode)
	}
	var tasks []Pattern
	resp = getJSON(t, ts.URL+"/v1/tasks?vehicle=v&count=100", &tasks)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count=100 status = %d, want 200", resp.StatusCode)
	}
}

func TestLabelsBatchAtomic(t *testing.T) {
	store, ts := newTestServer(t)
	addPattern(t, store, "seg", nil)

	// One valid label followed by one unknown task: nothing may be applied.
	batch := []Label{
		{Vehicle: "v", TaskID: 0, Value: 1},
		{Vehicle: "v", TaskID: 99, Value: 1},
	}
	resp := postJSON(t, ts.URL+"/v1/labels", batch)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if _, labels, _ := store.Counts(); labels != 0 {
		t.Fatalf("labels = %d, want 0 (batch must be atomic)", labels)
	}
	// The corrected batch applies fully.
	resp = postJSON(t, ts.URL+"/v1/labels", batch[:1])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if _, labels, _ := store.Counts(); labels != 1 {
		t.Fatalf("labels = %d, want 1", labels)
	}
}

func TestRequestDeadlineAttached(t *testing.T) {
	// The stack attaches the per-request deadline, on by default; register a
	// probe route on a default server and check the handler's context.
	var sawDeadline bool
	var left time.Duration
	s := New(NewStore(10))
	s.stack.Handle(s.mux, "/probe", func(w http.ResponseWriter, r *http.Request) {
		var at time.Time
		at, sawDeadline = r.Context().Deadline()
		left = time.Until(at)
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/probe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sawDeadline {
		t.Fatal("handler context has no deadline")
	}
	if left <= 0 || left > DefaultRequestTimeout {
		t.Fatalf("deadline %v away, want within DefaultRequestTimeout (%v)", left, DefaultRequestTimeout)
	}
}
