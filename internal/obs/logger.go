package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"time"

	"crowdwifi/internal/obs/trace"
)

// ParseLevel maps a -log-level flag value onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
}

// NewLogger returns a logger writing one key=value line per record at or
// above level to w: `ts=<UTC RFC 3339 seconds> level=<lower case> msg=...`,
// then the With pairs, then the call's pairs.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: lineAttr}))
}

// lineAttr rewrites the text handler's two built-in attributes that differ
// from the line the binaries print: the time and the level. A caller's own
// "time" pair that holds no time.Time is left alone (Value.Time panics).
func lineAttr(groups []string, a slog.Attr) slog.Attr {
	switch {
	case len(groups) > 0:
	case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
		return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339))
	case a.Key == slog.LevelKey:
		return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
	}
	return a
}

// Discard is the logger of a component given none: its handler reports
// every level disabled, so a call formats nothing.
var Discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// WithTrace returns l with the context's trace_id and span_id bound,
// correlating its lines with /debug/traces. A context without an active
// span returns l unchanged, so call sites can thread ctx unconditionally.
func WithTrace(ctx context.Context, l *slog.Logger) *slog.Logger {
	tid, sid, ok := trace.IDs(ctx)
	if !ok {
		return l
	}
	return l.With("trace_id", tid, "span_id", sid)
}
