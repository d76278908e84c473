package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func addTrace(s *Store, id, root string, dur time.Duration, hasErr bool) {
	errMsg := ""
	if hasErr {
		errMsg = "boom"
	}
	s.add(id, []SpanData{{
		TraceID:    id,
		SpanID:     "00f067aa0ba902b7",
		Name:       root,
		Start:      time.Unix(0, 0),
		DurationNS: int64(dur),
		Error:      errMsg,
	}}, hasErr)
}

// TestEvictionKeepsErrorAndSlowTraces: the tail-sampling contract — plain
// traces age out FIFO, but error traces and the slowest-per-endpoint survive.
func TestEvictionKeepsErrorAndSlowTraces(t *testing.T) {
	s := newStore(8, 4, 2)

	addTrace(s, "err-trace", "POST /report", 5*time.Millisecond, true)
	addTrace(s, "slow-trace", "POST /report", time.Second, false)

	// Flood with enough plain fast traces to roll the recent ring many times.
	for i := 0; i < 100; i++ {
		addTrace(s, fmt.Sprintf("plain-%03d", i), "POST /report", time.Millisecond, false)
	}

	if _, ok := s.Get("err-trace"); !ok {
		t.Fatal("error trace evicted")
	}
	if _, ok := s.Get("slow-trace"); !ok {
		t.Fatal("slowest trace evicted")
	}
	if _, ok := s.Get("plain-000"); ok {
		t.Fatal("old plain trace survived a full ring roll")
	}

	recent := s.Recent()
	if len(recent) != 8 {
		t.Fatalf("recent has %d entries, want capacity 8", len(recent))
	}
	if recent[0].ID != "plain-099" {
		t.Fatalf("recent[0] = %s, want newest plain-099", recent[0].ID)
	}

	errs := s.Errors()
	if len(errs) != 1 || errs[0].ID != "err-trace" || !errs[0].Error {
		t.Fatalf("errors view %+v", errs)
	}

	slow := s.Slowest()["POST /report"]
	if len(slow) != 2 {
		t.Fatalf("slow list has %d entries, want 2", len(slow))
	}
	if slow[0].ID != "slow-trace" {
		t.Fatalf("slowest[0] = %s, want slow-trace", slow[0].ID)
	}
	if slow[0].DurationNS < slow[1].DurationNS {
		t.Fatal("slow list not sorted slowest-first")
	}
}

func TestErrorRingBounded(t *testing.T) {
	s := newStore(4, 2, 1)
	for i := 0; i < 10; i++ {
		addTrace(s, fmt.Sprintf("err-%02d", i), fmt.Sprintf("GET /x%d", i), time.Millisecond, true)
	}
	if got := len(s.Errors()); got != 2 {
		t.Fatalf("error ring has %d entries, want 2", got)
	}
	if s.Errors()[0].ID != "err-09" {
		t.Fatalf("error ring newest = %s", s.Errors()[0].ID)
	}
}

func TestFragmentMergeRecomputesDuration(t *testing.T) {
	s := newStore(8, 4, 2)
	base := time.Unix(100, 0)
	s.add("tid", []SpanData{{TraceID: "tid", SpanID: "a", Name: "root", Start: base, DurationNS: int64(10 * time.Millisecond)}}, false)
	// A later fragment extends the trace's wall-clock envelope.
	s.add("tid", []SpanData{{TraceID: "tid", SpanID: "b", ParentID: "a", Name: "drain", Start: base.Add(time.Second), DurationNS: int64(50 * time.Millisecond)}}, false)

	tr, ok := s.Get("tid")
	if !ok {
		t.Fatal("merged trace missing")
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.Spans))
	}
	if tr.Root != "root" {
		t.Fatalf("root %q", tr.Root)
	}
	want := int64(time.Second + 50*time.Millisecond)
	if tr.DurationNS != want {
		t.Fatalf("duration %d, want %d (envelope of both fragments)", tr.DurationNS, want)
	}
}

func TestHandlerIndexAndGet(t *testing.T) {
	s := newStore(8, 4, 2)
	addTrace(s, "aaaa", "POST /report", time.Millisecond, false)
	addTrace(s, "bbbb", "POST /report", time.Second, true)

	mux := http.NewServeMux()
	Mount(mux, s)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	var idx struct {
		Recent  []TraceSummary            `json:"recent"`
		Slowest map[string][]TraceSummary `json:"slowest"`
		Errors  []TraceSummary            `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatalf("index decode: %v", err)
	}
	if len(idx.Recent) != 2 || len(idx.Errors) != 1 || len(idx.Slowest["POST /report"]) != 2 {
		t.Fatalf("index %+v", idx)
	}

	resp, err = http.Get(srv.URL + "/debug/traces/bbbb")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TraceData
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if tr.ID != "bbbb" || !tr.Error || len(tr.Spans) != 1 {
		t.Fatalf("trace %+v", tr)
	}

	resp, err = http.Get(srv.URL + "/debug/traces/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace status %d, want 404", resp.StatusCode)
	}
}
