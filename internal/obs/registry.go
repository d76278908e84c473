// Package obs is CrowdWiFi's zero-dependency observability layer: a
// concurrent metrics registry (counters, gauges, fixed-bucket histograms)
// with Prometheus text exposition, a leveled key=value logger, defer-friendly
// timing helpers, and an HTTP mux bundle that serves /metrics next to
// net/http/pprof.
//
// Every constructor and instrument method is nil-safe: a nil *Registry hands
// out nil instruments and a nil instrument is a no-op, so instrumented code
// paths need no conditionals and pay nothing when observability is off.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	case histogramType:
		return "histogram"
	default:
		return "unknown"
	}
}

// DefBuckets are the default histogram buckets (seconds): the conventional
// Prometheus latency ladder extended to 30 s so the seconds-scale tail a
// loaded server produces (retry storms, shed-and-retry loops, drain waits)
// still resolves instead of clipping into +Inf at 10 s.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// family groups all series sharing one metric name.
type family struct {
	name, help string
	typ        metricType
	buckets    []float64 // histogram upper bounds, ascending, no +Inf

	mu       sync.Mutex
	children map[string]any // rendered label string → instrument
}

// Registry is a concurrent metrics registry. Instruments are created once
// per (name, label set) and cached; hot-path updates are single atomic
// operations with no registry locking.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// onScrape registers fn to run at the start of every exposition (use it to
// refresh sampled gauges, e.g. runtime stats).
func (r *Registry) onScrape(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) family(name, help string, typ metricType, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, children: map[string]any{}}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

func (f *family) child(labels []Label, mk func() any) any {
	key := labelString(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
	}
	return c
}

// Counter returns the counter for (name, labels), creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, counterType, nil)
	return f.child(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, gaugeType, nil)
	return f.child(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram for (name, labels), creating it on first
// use. buckets are ascending upper bounds (an implicit +Inf bucket is always
// added); nil selects DefBuckets. The first registration of a name fixes the
// bucket layout for every series in the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
	f := r.family(name, help, histogramType, buckets)
	return f.child(labels, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// Counter is a monotonically increasing integer counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by d (negative d decrements).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. One mutex guards the
// bucket counts and the sum, so a scrape reads both at one instant: its _count
// is its +Inf bucket and its _sum is the sum of exactly the observations
// counted.
type Histogram struct {
	upper  []float64
	mu     sync.Mutex
	counts []uint64 // len(upper)+1; the last slot is the +Inf bucket
	sum    float64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]uint64, len(buckets)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// snapshot appends the bucket counts to dst and returns them with the sum of
// the same observations.
func (h *Histogram) snapshot(dst []uint64) ([]uint64, float64) {
	h.mu.Lock()
	dst = append(dst, h.counts...)
	sum := h.sum
	h.mu.Unlock()
	return dst, sum
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var sb strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(c)
		}
	}
	return sb.String()
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func writeSeries(w io.Writer, name, labels, value string) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, value)
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	return err
}

// writeHistogramSeries emits one histogram series in exposition order:
// cumulative buckets, sum, count, all from one snapshot, so the count is the
// +Inf bucket's cumulative total and the sum covers the same observations.
func writeHistogramSeries(w io.Writer, name, k string, c *Histogram) error {
	var buf [16]uint64
	counts, sum := c.snapshot(buf[:0])
	var cum uint64
	for bi, n := range counts {
		cum += n
		ub := "+Inf"
		if bi < len(c.upper) {
			ub = formatFloat(c.upper[bi])
		}
		if err := writeSeries(w, name+"_bucket", joinLabels(k, `le="`+ub+`"`), strconv.FormatUint(cum, 10)); err != nil {
			return err
		}
	}
	if err := writeSeries(w, name+"_sum", k, formatFloat(sum)); err != nil {
		return err
	}
	return writeSeries(w, name+"_count", k, strconv.FormatUint(cum, 10))
}

// joinLabels appends extra to a rendered label string.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

// WritePrometheus writes the registry contents in the Prometheus text
// exposition format (version 0.0.4). Families and series are emitted in
// sorted order so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	hooks := append([]func(){}, r.hooks...)
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
	sort.Strings(names)

	for _, name := range names {
		r.mu.RLock()
		f := r.families[name]
		r.mu.RUnlock()

		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()

		if f.help != "" {
			help := strings.ReplaceAll(strings.ReplaceAll(f.help, `\`, `\\`), "\n", `\n`)
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for i, k := range keys {
			switch c := children[i].(type) {
			case *Counter:
				if err := writeSeries(w, f.name, k, strconv.FormatUint(c.Value(), 10)); err != nil {
					return err
				}
			case *Gauge:
				if err := writeSeries(w, f.name, k, formatFloat(c.Value())); err != nil {
					return err
				}
			case *Histogram:
				if err := writeHistogramSeries(w, f.name, k, c); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
