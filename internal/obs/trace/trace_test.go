package trace

import (
	"context"
	"errors"
	"testing"
)

func newTestTracer(t *testing.T, rate float64) *Tracer {
	t.Helper()
	return NewTracer(Config{SampleRate: rate})
}

func TestSpanTreeCommitsToStore(t *testing.T) {
	tr := newTestTracer(t, 1)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "client.upload /report")
	if root == nil {
		t.Fatal("sampled root span is nil")
	}
	root.SetAttr("idempotency_key", "k-1")

	cctx, child := Start(ctx, "retry.attempt")
	if child == nil {
		t.Fatal("child span is nil")
	}
	if child.traceID.String() != root.traceID.String() {
		t.Fatalf("child trace id %s != root %s", child.traceID.String(), root.traceID.String())
	}
	if child.spanID.String() == root.spanID.String() {
		t.Fatal("child reused parent span id")
	}
	child.AddEvent("first attempt")
	child.SetError(errors.New("connection refused"))
	child.End()

	_, gchild := StartChild(cctx, "never")
	if gchild != nil {
		// cctx still carries child; StartChild under an ended parent must
		// still work — end it so the trace commits.
		gchild.End()
	}
	root.End()

	st := tr.Store()
	if len(st.traces) != 1 {
		t.Fatalf("store has %d traces, want 1", len(st.traces))
	}
	got, ok := st.Get(root.traceID.String())
	if !ok {
		t.Fatalf("trace %s not retained", root.traceID.String())
	}
	if got.Root != "client.upload /report" {
		t.Fatalf("root name %q, want client.upload /report", got.Root)
	}
	if !got.Error {
		t.Fatal("trace with failed span not flagged as error")
	}
	var sawChild, sawRoot bool
	for _, sp := range got.Spans {
		if sp.DurationNS <= 0 {
			t.Fatalf("span %s has non-positive duration %d", sp.Name, sp.DurationNS)
		}
		switch sp.Name {
		case "retry.attempt":
			sawChild = true
			if sp.ParentID != root.spanID.String() {
				t.Fatalf("attempt parent %s, want %s", sp.ParentID, root.spanID.String())
			}
			if sp.Error != "connection refused" {
				t.Fatalf("attempt error %q", sp.Error)
			}
			if len(sp.Events) != 1 || sp.Events[0].Msg != "first attempt" {
				t.Fatalf("attempt events %+v", sp.Events)
			}
		case "client.upload /report":
			sawRoot = true
			if sp.ParentID != "" {
				t.Fatalf("root has parent %s", sp.ParentID)
			}
			if len(sp.Attrs) != 1 || sp.Attrs[0].Key != "idempotency_key" {
				t.Fatalf("root attrs %+v", sp.Attrs)
			}
		}
	}
	if !sawChild || !sawRoot {
		t.Fatalf("spans missing: child=%v root=%v (%d spans)", sawChild, sawRoot, len(got.Spans))
	}
}

func TestNilSafety(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.AddEvent("e")
	s.SetError(errors.New("x"))
	s.End()
	if s.Traceparent() != "" {
		t.Fatal("nil span ids not empty")
	}

	var tr *Tracer
	if tr.Store() != nil {
		t.Fatal("nil tracer store not nil")
	}
	if _, s := tr.StartServer(context.Background(), "x", nil); s != nil {
		t.Fatal("nil tracer started a server span")
	}
	if _, s := tr.StartRemote(context.Background(), "x", TraceID{1}, SpanID{1}, true); s != nil {
		t.Fatal("nil tracer started a remote span")
	}
}

func TestUnsampledAndBareContext(t *testing.T) {
	// No tracer in ctx: Start is a no-op.
	ctx, s := Start(context.Background(), "x")
	if s != nil {
		t.Fatal("Start without tracer returned a span")
	}
	if ctx != context.Background() {
		t.Fatal("Start without tracer changed the context")
	}

	// StartChild never creates roots, even with a tracer present.
	tctx := WithTracer(context.Background(), newTestTracer(t, 1))
	if _, s := StartChild(tctx, "x"); s != nil {
		t.Fatal("StartChild created a root span")
	}

	// SampleRate 0: every root is dropped.
	zero := newTestTracer(t, 0)
	zctx := WithTracer(context.Background(), zero)
	for i := 0; i < 100; i++ {
		if _, s := Start(zctx, "x"); s != nil {
			t.Fatal("rate-0 tracer sampled a root")
		}
	}
	if len(zero.Store().traces) != 0 {
		t.Fatal("rate-0 tracer committed traces")
	}
}

func TestIDsForLogCorrelation(t *testing.T) {
	tr := newTestTracer(t, 1)
	ctx := WithTracer(context.Background(), tr)
	if _, _, ok := IDs(ctx); ok {
		t.Fatal("IDs ok without a span")
	}
	ctx, s := Start(ctx, "x")
	defer s.End()
	tid, sid, ok := IDs(ctx)
	if !ok || tid != s.traceID.String() || sid != s.spanID.String() {
		t.Fatalf("IDs = %s %s %v, want %s %s true", tid, sid, ok, s.traceID.String(), s.spanID.String())
	}
	if len(tid) != 32 || len(sid) != 16 {
		t.Fatalf("hex lengths %d/%d, want 32/16", len(tid), len(sid))
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := newTestTracer(t, 1)
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "x")
	s.End()
	s.End()
	s.End()
	got, ok := tr.Store().Get(s.traceID.String())
	if !ok || len(got.Spans) != 1 {
		t.Fatalf("double End duplicated spans: %+v ok=%v", got.Spans, ok)
	}
}

// TestFragmentMergeAcrossBursts models the outbox-drain path: the original
// upload span commits, then a later burst (drain) continues the same trace.
// The store must merge both fragments into one trace.
func TestFragmentMergeAcrossBursts(t *testing.T) {
	tr := newTestTracer(t, 1)
	ctx := WithTracer(context.Background(), tr)

	ctx, upload := Start(ctx, "client.upload /report")
	tp := upload.Traceparent()
	upload.AddEvent("queued to outbox")
	upload.End() // burst 1 commits

	// Minutes later: drain resumes from the stored traceparent.
	dctx, drain := Resume(WithTracer(context.Background(), tr), "client.drain /report", tp)
	if drain == nil {
		t.Fatal("Resume returned nil span")
	}
	if drain.traceID.String() != upload.traceID.String() {
		t.Fatalf("drain trace %s != upload trace %s", drain.traceID.String(), upload.traceID.String())
	}
	_, attempt := StartChild(dctx, "retry.attempt")
	attempt.End()
	drain.End() // burst 2 commits

	if n := len(tr.Store().traces); n != 1 {
		t.Fatalf("store has %d traces, want 1 merged", n)
	}
	got, _ := tr.Store().Get(upload.traceID.String())
	if len(got.Spans) != 3 {
		t.Fatalf("merged trace has %d spans, want 3", len(got.Spans))
	}
	if got.Root != "client.upload /report" {
		t.Fatalf("merged root %q", got.Root)
	}
}
