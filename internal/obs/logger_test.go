package obs

import (
	"context"
	"strings"
	"testing"
	"time"

	"crowdwifi/internal/obs/trace"
)

func fixedLogger(sb *strings.Builder, level Level) *Logger {
	l := NewLogger(sb, level)
	l.now = func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }
	return l
}

func TestLoggerFormat(t *testing.T) {
	var sb strings.Builder
	l := fixedLogger(&sb, LevelInfo)
	l.Info("server listening", "addr", ":8700", "routes", 7)
	want := `ts=2026-08-06T12:00:00Z level=info msg="server listening" addr=:8700 routes=7` + "\n"
	if sb.String() != want {
		t.Fatalf("got %q, want %q", sb.String(), want)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var sb strings.Builder
	l := fixedLogger(&sb, LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	out := sb.String()
	if strings.Contains(out, "level=debug") || strings.Contains(out, "level=info") {
		t.Fatalf("low levels leaked: %q", out)
	}
	if !strings.Contains(out, "level=warn") || !strings.Contains(out, "level=error") {
		t.Fatalf("high levels missing: %q", out)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelWarn) {
		t.Fatal("Enabled disagrees with what was emitted")
	}
}

func TestLoggerQuoting(t *testing.T) {
	var sb strings.Builder
	l := fixedLogger(&sb, LevelDebug)
	l.Info("m", "q", `a "b" c`, "empty", "", "plain", "x", "eq", "a=b")
	out := sb.String()
	for _, want := range []string{`q="a \"b\" c"`, `empty=""`, ` plain=x`, `eq="a=b"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("output %q missing %q", out, want)
		}
	}
}

func TestLoggerWith(t *testing.T) {
	var sb strings.Builder
	l := fixedLogger(&sb, LevelInfo).With("component", "aggregator")
	l.Info("cycle", "fused", 3)
	if !strings.Contains(sb.String(), "component=aggregator fused=3") {
		t.Fatalf("bound context missing: %q", sb.String())
	}
}

func TestLoggerOddKVs(t *testing.T) {
	var sb strings.Builder
	fixedLogger(&sb, LevelInfo).Info("m", "lonely")
	if !strings.Contains(sb.String(), "!BADKEY=lonely") {
		t.Fatalf("odd kv not flagged: %q", sb.String())
	}
}

func TestNilLogger(t *testing.T) {
	var l *Logger
	l.Info("must not panic")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger must report disabled")
	}
	if l.With("k", "v") != nil {
		t.Fatal("nil logger With must stay nil")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "": LevelInfo,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel(loud) must error")
	}
}

func TestLoggerCtx(t *testing.T) {
	var sb strings.Builder
	l := fixedLogger(&sb, LevelInfo)

	// No span in ctx: logger unchanged, no correlation keys.
	l.Ctx(context.Background()).Info("plain")
	if strings.Contains(sb.String(), "trace_id") {
		t.Fatalf("uncorrelated line gained trace_id: %q", sb.String())
	}
	sb.Reset()

	tr := trace.NewTracer(trace.Config{SampleRate: 1})
	ctx := trace.WithTracer(context.Background(), tr)
	ctx, span := trace.Start(ctx, "op")
	defer span.End()

	l.Ctx(ctx).Info("correlated", "k", "v")
	out := sb.String()
	tid, _, _ := trace.IDs(ctx)
	if tid == "" || !strings.Contains(out, "trace_id="+tid) {
		t.Fatalf("trace_id missing: %q", out)
	}
	// The span id is the traceparent's third field.
	if sid := strings.Split(span.Traceparent(), "-")[2]; !strings.Contains(out, "span_id="+sid) {
		t.Fatalf("span_id missing: %q", out)
	}
	if !strings.Contains(out, " k=v") {
		t.Fatalf("caller kvs lost: %q", out)
	}

	// Nil logger stays a no-op.
	var nilL *Logger
	nilL.Ctx(ctx).Info("dropped")
}
