package obs

import (
	"context"
	"log/slog"
	"regexp"
	"strings"
	"testing"

	"crowdwifi/internal/obs/trace"
)

// tsRe is the ts field: UTC RFC 3339 to the second.
const tsRe = `^ts=\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ `

// listenLine is the pattern bench/proc.go reads each child's port from.
var listenLine = regexp.MustCompile(`msg="[a-z-]+ listening" addr=(\S+)`)

func TestLoggerFormat(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelInfo)
	l.Info("server listening", "addr", ":8700", "routes", 7)
	want := regexp.MustCompile(tsRe + `level=info msg="server listening" addr=:8700 routes=7\n$`)
	if !want.MatchString(sb.String()) {
		t.Fatalf("got %q, want %q", sb.String(), want)
	}

	// The router's boot line, as cmd/crowdwifi-router prints it.
	sb.Reset()
	l.Info("router listening", "addr", "127.0.0.1:8600", "members", 3)
	want = regexp.MustCompile(tsRe + `level=info msg="router listening" addr=127.0.0.1:8600 members=3\n$`)
	if !want.MatchString(sb.String()) {
		t.Fatalf("got %q, want %q", sb.String(), want)
	}
	if m := listenLine.FindStringSubmatch(sb.String()); m == nil || m[1] != "127.0.0.1:8600" {
		t.Fatalf("bench pattern read %q from %q", m, sb.String())
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelWarn)
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
	if l.Enabled(context.Background(), slog.LevelInfo) || !l.Enabled(context.Background(), slog.LevelWarn) {
		t.Fatal("Enabled disagrees with what was emitted")
	}
}

func TestLoggerQuoting(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelDebug)
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
	l := NewLogger(&sb, slog.LevelInfo).With("component", "aggregator")
	l.Info("cycle", "fused", 3)
	if !strings.Contains(sb.String(), "component=aggregator fused=3") {
		t.Fatalf("bound context missing: %q", sb.String())
	}
}

func TestLoggerOddKVs(t *testing.T) {
	var sb strings.Builder
	// Through a slice: vet rejects a literal call with a dangling key.
	args := []any{"lonely"}
	NewLogger(&sb, slog.LevelInfo).Info("m", args...)
	if !strings.Contains(sb.String(), "!BADKEY=lonely") {
		t.Fatalf("odd kv not flagged: %q", sb.String())
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "WARN": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
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
	l := NewLogger(&sb, slog.LevelInfo)

	// No span in ctx: logger unchanged, no correlation keys.
	WithTrace(context.Background(), l).Info("plain")
	if strings.Contains(sb.String(), "trace_id") {
		t.Fatalf("uncorrelated line gained trace_id: %q", sb.String())
	}
	sb.Reset()

	tr := trace.NewTracer(trace.Config{SampleRate: 1})
	ctx := trace.WithTracer(context.Background(), tr)
	ctx, span := trace.Start(ctx, "op")
	defer span.End()

	WithTrace(ctx, l).Info("correlated", "k", "v")
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
}
