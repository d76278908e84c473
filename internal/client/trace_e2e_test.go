package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/server"
)

// The headline tracing guarantee (ISSUE PR 4): one logical vehicle upload is
// ONE trace, end to end — every client retry attempt, the server-side dedupe
// check, and the WAL append that makes the report durable all land in the
// same trace, retrievable over /debug/traces/{id}.

// failFirstN fails the first n requests with a transport error, then passes
// through.
type failFirstN struct {
	remaining atomic.Int32
	next      HTTPDoer
}

func (d *failFirstN) Do(req *http.Request) (*http.Response, error) {
	if d.remaining.Add(-1) >= 0 {
		return nil, errors.New("link down")
	}
	return d.next.Do(req)
}

// traceRig is one vehicle + durable server pair sharing a single tracer, so
// client-side and server-side span fragments merge in one store.
func newTraceRig(t *testing.T, doer HTTPDoer) (context.Context, *CrowdVehicle, *httptest.Server, *trace.Tracer) {
	t.Helper()
	tracer := trace.NewTracer(trace.Config{SampleRate: 1})
	store, _, err := server.OpenStore(10, server.StorageOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(server.New(store, server.WithTracer(tracer)))
	t.Cleanup(ts.Close)

	v := &CrowdVehicle{ID: "trace-veh", BaseURL: ts.URL, HTTP: doer, Outbox: NewOutbox(8)}
	return trace.WithTracer(context.Background(), tracer), v, ts, tracer
}

// fetchTrace retrieves one assembled trace over the wire.
func fetchTrace(t *testing.T, baseURL, id string) trace.TraceData {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: status %d", id, resp.StatusCode)
	}
	var tr trace.TraceData
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// spansNamed returns the spans with the given name.
func spansNamed(tr trace.TraceData, name string) []trace.SpanData {
	var out []trace.SpanData
	for _, s := range tr.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestUploadTraceSpansRetriesDedupeAndWAL(t *testing.T) {
	// Two transport failures before success: the upload takes three retry
	// attempts, all under one root span.
	inner := &failFirstN{next: http.DefaultClient}
	inner.remaining.Store(2)
	doer := retry.NewDoer(inner,
		retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	ctx, v, ts, tracer := newTraceRig(t, doer)

	rep := api.Report{Vehicle: v.ID, Segment: "seg-T",
		APs: []api.APReport{{X: 100, Y: 50, Credit: 3}}}
	if err := v.postJSON(ctx, "/v1/reports", rep, nil, true); err != nil {
		t.Fatalf("upload: %v", err)
	}

	recent := tracer.Store().Recent()
	if len(recent) != 1 {
		t.Fatalf("retained traces = %d, want exactly 1 (one logical upload = one trace)", len(recent))
	}
	if recent[0].Root != "client.upload /v1/reports" {
		t.Fatalf("root = %q, want client.upload /v1/reports", recent[0].Root)
	}

	tr := fetchTrace(t, ts.URL, recent[0].ID)
	if tr.ID != recent[0].ID {
		t.Fatalf("trace id = %q, want %q", tr.ID, recent[0].ID)
	}
	if attempts := spansNamed(tr, "retry.attempt"); len(attempts) != 3 {
		t.Fatalf("retry.attempt spans = %d, want 3 (two failures + success)", len(attempts))
	}
	for _, name := range []string{
		"client.upload /v1/reports", // root
		"retry.attempt",             // per-attempt client spans
		"server POST /v1/reports",   // remote continuation
		"server.dedupe",             // idempotency check
		"store.add_report",          // mutator
		"wal.append",                // durability
	} {
		spans := spansNamed(tr, name)
		if len(spans) == 0 {
			t.Errorf("trace is missing span %q", name)
			continue
		}
		for _, s := range spans {
			if s.DurationNS <= 0 {
				t.Errorf("span %q has non-positive duration %d", name, s.DurationNS)
			}
			if s.TraceID != tr.ID {
				t.Errorf("span %q carries trace id %q, want %q", name, s.TraceID, tr.ID)
			}
		}
	}

	// The two failed attempts carry error status; the trace as a whole is
	// flagged so tail retention keeps it.
	if !tr.Error {
		t.Error("trace with failed attempts not flagged as error")
	}
	var failed int
	for _, s := range spansNamed(tr, "retry.attempt") {
		if s.Error != "" {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("failed retry.attempt spans = %d, want 2", failed)
	}
}

func TestOutboxDrainContinuesUploadTrace(t *testing.T) {
	// Every live attempt fails: the upload parks in the outbox. The later
	// drain (new context, working link) must rejoin the original trace via
	// the persisted traceparent — one logical upload, one trace, across the
	// queue boundary.
	down := &failFirstN{next: http.DefaultClient}
	down.remaining.Store(1 << 30)
	ctx, v, ts, tracer := newTraceRig(t, down)

	rep := api.Report{Vehicle: v.ID, Segment: "seg-Q",
		APs: []api.APReport{{X: 200, Y: 80, Credit: 2}}}
	if err := v.postJSON(ctx, "/v1/reports", rep, nil, true); !errors.Is(err, ErrQueued) {
		t.Fatalf("upload err = %v, want ErrQueued", err)
	}

	// Contact window: the link comes back and a fresh drain context (as the
	// shutdown flush uses) delivers the queued report.
	v.HTTP = retry.NewDoer(nil, retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	dctx := trace.WithTracer(context.Background(), tracer)
	if n, err := v.DrainOutbox(dctx); err != nil || n != 1 {
		t.Fatalf("drain = (%d, %v), want (1, nil)", n, err)
	}

	recent := tracer.Store().Recent()
	if len(recent) != 1 {
		t.Fatalf("retained traces = %d, want 1 (drain must not mint a fresh trace)", len(recent))
	}
	tr := fetchTrace(t, ts.URL, recent[0].ID)
	if tr.Root != "client.upload /v1/reports" {
		t.Fatalf("root = %q, want the original upload span", tr.Root)
	}
	for _, name := range []string{"client.drain /v1/reports", "retry.attempt", "server POST /v1/reports", "wal.append"} {
		if len(spansNamed(tr, name)) == 0 {
			t.Errorf("merged trace is missing span %q", name)
		}
	}
}
