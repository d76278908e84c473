package obs

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdwifi/internal/obs/trace"
)

// Level orders log severities.
type Level int32

// Log levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level for output and flag round-tripping.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel maps a -log-level flag value onto a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
}

// Logger is a leveled structured logger emitting one key=value line per
// record. It carries no global state: the writer, the level, and any bound
// context travel with the value. A nil *Logger discards everything.
type Logger struct {
	mu    *sync.Mutex
	w     io.Writer
	level Level
	now   func() time.Time
	bound string // pre-rendered key=value pairs from With
}

// NewLogger returns a logger writing records at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, level: level, now: time.Now}
}

// Enabled reports whether records at level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// With returns a logger that appends the given key=value pairs to every
// record. The child shares the parent's writer, lock, and level.
func (l *Logger) With(kvs ...any) *Logger {
	if l == nil || len(kvs) == 0 {
		return l
	}
	child := *l
	var sb strings.Builder
	sb.WriteString(l.bound)
	appendKVs(&sb, kvs)
	child.bound = sb.String()
	return &child
}

// Ctx returns a logger whose records carry the context's trace_id and
// span_id, correlating log lines with /debug/traces. A context without an
// active span returns the logger unchanged, so call sites can thread ctx
// unconditionally: `l.Ctx(ctx).Info(...)`.
func (l *Logger) Ctx(ctx context.Context) *Logger {
	if l == nil || ctx == nil {
		return l
	}
	tid, sid, ok := trace.IDs(ctx)
	if !ok {
		return l
	}
	return l.With("trace_id", tid, "span_id", sid)
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kvs ...any) { l.log(LevelDebug, msg, kvs) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kvs ...any) { l.log(LevelInfo, msg, kvs) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kvs ...any) { l.log(LevelWarn, msg, kvs) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kvs ...any) { l.log(LevelError, msg, kvs) }

func (l *Logger) log(level Level, msg string, kvs []any) {
	if !l.Enabled(level) {
		return
	}
	var sb strings.Builder
	sb.WriteString("ts=")
	sb.WriteString(l.now().UTC().Format(time.RFC3339))
	sb.WriteString(" level=")
	sb.WriteString(level.String())
	sb.WriteString(" msg=")
	sb.WriteString(formatValue(msg))
	sb.WriteString(l.bound)
	appendKVs(&sb, kvs)
	sb.WriteByte('\n')
	l.mu.Lock()
	_, _ = io.WriteString(l.w, sb.String())
	l.mu.Unlock()
}

func appendKVs(sb *strings.Builder, kvs []any) {
	for i := 0; i+1 < len(kvs); i += 2 {
		key, ok := kvs[i].(string)
		if !ok {
			key = fmt.Sprintf("%v", kvs[i])
		}
		sb.WriteByte(' ')
		sb.WriteString(key)
		sb.WriteByte('=')
		sb.WriteString(formatValue(kvs[i+1]))
	}
	if len(kvs)%2 != 0 {
		sb.WriteString(" !BADKEY=")
		sb.WriteString(formatValue(kvs[len(kvs)-1]))
	}
}

func formatValue(v any) string {
	var s string
	switch t := v.(type) {
	case string:
		s = t
	case error:
		s = t.Error()
	case time.Duration:
		s = t.String()
	case float64:
		s = strconv.FormatFloat(t, 'g', -1, 64)
	case float32:
		s = strconv.FormatFloat(float64(t), 'g', -1, 32)
	case fmt.Stringer:
		s = t.String()
	default:
		s = fmt.Sprintf("%v", v)
	}
	if s == "" || strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
