package trace

import (
	"testing"
	"time"
)

// A process's store merges the fragments of one trace it commits at
// different times (a span tree ended, an outbox upload resumed later) by
// trace id. Another process's fragments are not merged here: each process
// serves its own spans, and the W3C parent link joins them for the reader.

func mergeSpan(traceID, spanID, parentID, name string, remote bool, start time.Time) SpanData {
	return SpanData{
		TraceID:    traceID,
		SpanID:     spanID,
		ParentID:   parentID,
		Remote:     remote,
		Name:       name,
		Start:      start,
		DurationNS: int64(time.Millisecond),
	}
}

func TestMergeStitchesFragments(t *testing.T) {
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	t0 := time.Unix(1_700_000_000, 0)
	s := newStore(8, 4, 2)

	// A later fragment, continued over the wire, commits first.
	s.add(id, []SpanData{
		mergeSpan(id, "bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa", "server POST /v1/reports", true, t0.Add(time.Millisecond)),
		mergeSpan(id, "cccccccccccccccc", "bbbbbbbbbbbbbbbb", "store.add_report", false, t0.Add(2*time.Millisecond)),
	}, false)
	// Then the fragment holding the trace's parentless span.
	s.add(id, []SpanData{mergeSpan(id, "aaaaaaaaaaaaaaaa", "", "client.upload", false, t0)}, false)

	merged, ok := s.Get(id)
	if !ok {
		t.Fatal("the store holds no trace")
	}
	if merged.ID != id {
		t.Fatalf("merged id = %q, want %q", merged.ID, id)
	}
	if len(merged.Spans) != 3 {
		t.Fatalf("merged spans = %d, want 3", len(merged.Spans))
	}
	if merged.Root != "client.upload" {
		t.Fatalf("merged root = %q", merged.Root)
	}
	// Spans are sorted by start: the earliest fragment's span first.
	if merged.Spans[0].SpanID != "aaaaaaaaaaaaaaaa" {
		t.Fatalf("first span = %s", merged.Spans[0].SpanID)
	}
	if len(s.traces) != 1 || len(s.Recent()) != 1 {
		t.Fatalf("%d traces, %d recent, want one of each", len(s.traces), len(s.Recent()))
	}
}

func TestMergeErrorPropagates(t *testing.T) {
	const id = "abcdefabcdefabcdefabcdefabcdefab"
	t0 := time.Unix(1_700_000_000, 0)
	s := newStore(8, 4, 2)
	s.add(id, []SpanData{mergeSpan(id, "aaaaaaaaaaaaaaaa", "", "root", false, t0)}, false)
	errSpan := mergeSpan(id, "bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa", "failing", false, t0.Add(time.Millisecond))
	errSpan.Error = "boom"
	s.add(id, []SpanData{errSpan}, true)

	merged, ok := s.Get(id)
	if !ok || !merged.Error {
		t.Fatalf("merged error flag = %v (ok=%v), want true", merged.Error, ok)
	}
	if errs := s.Errors(); len(errs) != 1 || errs[0].ID != id {
		t.Fatalf("error traces = %+v, want %s", errs, id)
	}
}

func TestMergeEmpty(t *testing.T) {
	s := newStore(8, 4, 2)
	s.add("00f067aa0ba902b74bf92f3577b34da6", nil, true)
	if _, ok := s.Get("00f067aa0ba902b74bf92f3577b34da6"); ok {
		t.Fatal("a fragment of no spans made a trace")
	}
	if len(s.traces) != 0 || len(s.Errors()) != 0 {
		t.Fatalf("%d traces, %d error traces after an empty fragment, want none", len(s.traces), len(s.Errors()))
	}
}
