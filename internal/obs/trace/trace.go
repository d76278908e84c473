// Package trace is CrowdWiFi's zero-dependency distributed-tracing layer: a
// span API with 128-bit trace IDs, W3C traceparent propagation over HTTP, a
// lock-cheap per-process ring-buffer trace store, and head + tail sampling
// (head: a probability gate on new root traces; tail: error traces and the
// slowest N per endpoint survive ring eviction).
//
// The API is nil-safe end to end: a nil *Span accepts every method as a
// no-op and a context without a tracer starts nothing, so instrumented code
// paths need no conditionals and an unsampled span costs a few nanoseconds.
//
// Spans from one trace may finish in separate bursts (a client retry that
// drains from the outbox minutes later, a server handling each retry
// attempt): each burst commits a fragment to the store, and the store merges
// fragments by trace ID, so /debug/traces/{id} shows the whole of this
// process's part. Each process serves only its own spans; the traceparent's
// parent id is the link a reader follows from one process's span to the
// next's.
package trace

import (
	"context"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID is a 128-bit trace identifier (W3C trace-id).
type TraceID [16]byte

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID is a 64-bit span identifier (W3C parent-id).
type SpanID [8]byte

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// Attr is one key/value pair attached to a span.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Event is a timestamped annotation on a span.
type Event struct {
	Time time.Time `json:"time"`
	Msg  string    `json:"msg"`
}

// SpanData is the immutable record of a finished span.
type SpanData struct {
	TraceID    string    `json:"traceId"`
	SpanID     string    `json:"spanId"`
	ParentID   string    `json:"parentId,omitempty"`
	Remote     bool      `json:"remoteParent,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"durationNs"`
	Error      string    `json:"error,omitempty"`
	Attrs      []Attr    `json:"attrs,omitempty"`
	Events     []Event   `json:"events,omitempty"`
}

// Config configures a Tracer. Its trace store keeps the defaults: the last
// DefaultCapacity traces, a quarter as many error traces, and the
// defaultSlowPerEndpoint slowest per root span name.
type Config struct {
	// SampleRate is the head-sampling probability for new root traces in
	// [0, 1]: 1 records every trace, 0 records none. Remote continuations
	// (a valid sampled traceparent) follow the upstream decision instead.
	SampleRate float64
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Tracer mints spans and owns the trace store. All methods are safe for
// concurrent use; a nil *Tracer starts nothing.
type Tracer struct {
	sampleAll bool
	threshold uint64 // sample when rand64 < threshold
	now       func() time.Time
	store     *Store

	mu     sync.Mutex
	active map[TraceID]*traceBuf
}

// NewTracer returns a tracer with the given configuration.
func NewTracer(cfg Config) *Tracer {
	t := &Tracer{
		now:    cfg.Now,
		store:  newStore(DefaultCapacity, DefaultCapacity/4, defaultSlowPerEndpoint),
		active: map[TraceID]*traceBuf{},
	}
	if t.now == nil {
		t.now = time.Now
	}
	switch {
	case cfg.SampleRate >= 1:
		t.sampleAll = true
	case cfg.SampleRate > 0:
		t.threshold = uint64(cfg.SampleRate * math.MaxUint64)
	}
	return t
}

// Store exposes the tracer's trace store (for mounting /debug/traces).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

func (t *Tracer) sample() bool {
	if t.sampleAll {
		return true
	}
	if t.threshold == 0 {
		return false
	}
	return rand.Uint64() < t.threshold
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		putUint64(id[:8], rand.Uint64())
		putUint64(id[8:], rand.Uint64())
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		putUint64(id[:], rand.Uint64())
	}
	return id
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// traceBuf accumulates one process-local burst of spans for a trace. When
// the last open span referencing it ends, the burst commits to the store as
// a fragment; the store merges fragments by trace ID.
type traceBuf struct {
	mu        sync.Mutex
	refs      int
	committed bool
	err       bool
	spans     []SpanData
}

// tryRef claims a reference unless the buffer already committed.
func (b *traceBuf) tryRef() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.committed {
		return false
	}
	b.refs++
	return true
}

// finish records a finished span and releases its reference; done reports
// that this was the last reference and the buffer is now sealed.
func (b *traceBuf) finish(d SpanData, isErr bool) (spans []SpanData, anyErr, done bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spans = append(b.spans, d)
	if isErr {
		b.err = true
	}
	b.refs--
	if b.refs > 0 || b.committed {
		return nil, false, false
	}
	b.committed = true
	return b.spans, b.err, true
}

// joinBuf returns the live buffer for a trace id, creating one (with one
// reference claimed) when none is open.
func (t *Tracer) joinBuf(id TraceID) *traceBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.active[id]; ok && b.tryRef() {
		return b
	}
	b := &traceBuf{refs: 1}
	t.active[id] = b
	return b
}

func (t *Tracer) commit(id TraceID, b *traceBuf, spans []SpanData, err bool) {
	t.mu.Lock()
	if t.active[id] == b {
		delete(t.active, id)
	}
	t.mu.Unlock()
	t.store.add(id.String(), spans, err)
}

// Span is one in-flight operation. A nil *Span is a recorded-nothing no-op,
// so callers never branch on sampling.
type Span struct {
	tracer   *Tracer
	buf      *traceBuf
	traceID  TraceID
	spanID   SpanID
	parentID SpanID
	remote   bool
	name     string
	start    time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	errMsg string
	ended  bool
}

type ctxKey int

const (
	spanKey ctxKey = iota
	tracerKey
)

// WithTracer returns a context that starts new root spans on t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the current span (nil when none).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// TracerFromContext returns the tracer reachable from ctx: the current
// span's tracer, or the one installed by WithTracer.
func TracerFromContext(ctx context.Context) *Tracer {
	if s := FromContext(ctx); s != nil {
		return s.tracer
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// IDs returns the current trace and span ids in hex for log correlation.
func IDs(ctx context.Context) (traceID, spanID string, ok bool) {
	s := FromContext(ctx)
	if s == nil {
		return "", "", false
	}
	return s.traceID.String(), s.spanID.String(), true
}

// Start begins a span: a child of the context's current span when one is
// present, otherwise a new (head-sampled) root on the context's tracer. A
// context with neither returns (ctx, nil) untouched.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		return parent.child(ctx, name)
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	if t == nil {
		return ctx, nil
	}
	return t.startRoot(ctx, name)
}

// StartChild begins a span only when the context already carries one; it
// never creates a new root. Use it for interior steps (an fsync, a retry
// attempt) that are noise outside a traced request.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		return parent.child(ctx, name)
	}
	return ctx, nil
}

func (t *Tracer) startRoot(ctx context.Context, name string) (context.Context, *Span) {
	if !t.sample() {
		return ctx, nil
	}
	tid := t.newTraceID()
	s := &Span{
		tracer:  t,
		buf:     t.joinBuf(tid),
		traceID: tid,
		spanID:  t.newSpanID(),
		name:    name,
		start:   t.now(),
	}
	return context.WithValue(ctx, spanKey, s), s
}

// StartRemote continues a trace whose parent span lives in another process
// (or another burst of this one): the upstream sampling decision is honored,
// so sampled=false records nothing.
func (t *Tracer) StartRemote(ctx context.Context, name string, tid TraceID, parent SpanID, sampled bool) (context.Context, *Span) {
	if t == nil || !sampled || tid.IsZero() {
		return ctx, nil
	}
	s := &Span{
		tracer:   t,
		buf:      t.joinBuf(tid),
		traceID:  tid,
		spanID:   t.newSpanID(),
		parentID: parent,
		remote:   true,
		name:     name,
		start:    t.now(),
	}
	return context.WithValue(ctx, spanKey, s), s
}

func (p *Span) child(ctx context.Context, name string) (context.Context, *Span) {
	buf := p.buf
	if !buf.tryRef() {
		// The parent's burst already committed (e.g. an outbox drain running
		// after the original upload span closed): open a fresh fragment under
		// the same trace id and let the store merge them.
		buf = p.tracer.joinBuf(p.traceID)
	}
	s := &Span{
		tracer:   p.tracer,
		buf:      buf,
		traceID:  p.traceID,
		spanID:   p.tracer.newSpanID(),
		parentID: p.spanID,
		name:     name,
		start:    p.tracer.now(),
	}
	return context.WithValue(ctx, spanKey, s), s
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// AddEvent records a timestamped annotation.
func (s *Span) AddEvent(msg string) {
	if s == nil {
		return
	}
	now := s.tracer.now()
	s.mu.Lock()
	s.events = append(s.events, Event{Time: now, Msg: msg})
	s.mu.Unlock()
}

// SetError marks the span (and therefore its trace) as failed. A nil err is
// ignored, so `span.SetError(err)` needs no conditional at call sites.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// End finishes the span and, when it is the last open span of its local
// burst, commits the burst to the trace store. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tracer.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	dur := end.Sub(s.start)
	if dur <= 0 {
		// Coarse clocks can report zero elapsed time for sub-tick work; a
		// recorded span always took *some* time.
		dur = time.Nanosecond
	}
	data := SpanData{
		TraceID:    s.traceID.String(),
		SpanID:     s.spanID.String(),
		Name:       s.name,
		Start:      s.start,
		DurationNS: int64(dur),
		Error:      s.errMsg,
		Attrs:      s.attrs,
		Events:     s.events,
		Remote:     s.remote,
	}
	if !s.parentID.IsZero() {
		data.ParentID = s.parentID.String()
	}
	isErr := s.errMsg != ""
	s.mu.Unlock()
	if spans, anyErr, done := s.buf.finish(data, isErr); done {
		s.tracer.commit(s.traceID, s.buf, spans, anyErr)
	}
}
