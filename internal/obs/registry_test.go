package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same (name, labels) returns the same instrument.
	if r.Counter("test_total", "help") != c {
		t.Fatal("counter lookup did not return the cached instrument")
	}
	// Different labels yield a distinct series.
	c2 := r.Counter("test_total", "help", L("k", "v"))
	if c2 == c {
		t.Fatal("labeled counter aliases the unlabeled one")
	}
}

func TestGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "help")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", g.Value())
	}
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge after Add = %g, want 1.5", g.Value())
	}
}

func TestHistogramSemantics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	counts, sum := h.snapshot(nil)
	if sum != 16 {
		t.Fatalf("sum = %g, want 16", sum)
	}
	// Bucket counts: le=1 → {0.5, 1}, le=2 → +{1.5}, le=5 → +{3}, +Inf → +{10}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := counts[i]; got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h != nil {
		t.Fatal("nil instruments must read as zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v body=%q", err, sb.String())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dual", "")
	r.Gauge("dual", "")
}

// TestExpositionGolden pins the Prometheus text format: HELP/TYPE headers,
// sorted series, escaped labels, cumulative histogram buckets.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.", L("route", "/v1/x"), L("code", "200")).Add(3)
	r.Counter("app_requests_total", "Requests served.", L("route", "/v1/x"), L("code", "500")).Inc()
	r.Gauge("app_temperature", "Current temperature.").Set(36.5)
	h := r.Histogram("app_latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.Counter("app_weird_total", "", L("q", `a"b\c`+"\n")).Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 2.55
app_latency_seconds_count 3
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{code="200",route="/v1/x"} 3
app_requests_total{code="500",route="/v1/x"} 1
# HELP app_temperature Current temperature.
# TYPE app_temperature gauge
app_temperature 36.5
# TYPE app_weird_total counter
app_weird_total{q="a\"b\\c\n"} 1
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func TestOnScrapeHook(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("sampled", "")
	calls := 0
	r.onScrape(func() { calls++; g.Set(float64(calls)) })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !strings.Contains(sb.String(), "sampled 1") {
		t.Fatalf("hook not applied before exposition: calls=%d body=%q", calls, sb.String())
	}
}

// TestConcurrentIncrements exercises every instrument from many goroutines;
// under -race this doubles as the registry's data-race check.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix cached instruments with registry lookups to exercise the
			// lock paths too.
			c := r.Counter("conc_total", "")
			h := r.Histogram("conc_seconds", "", []float64{0.5})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				r.Gauge("conc_gauge", "").Add(1)
				h.Observe(float64(i%2) * 0.75)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("conc_gauge", "").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %g, want %d", got, workers*perWorker)
	}
	counts, _ := r.Histogram("conc_seconds", "", []float64{0.5}).snapshot(nil)
	if got := counts[0] + counts[1]; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// BenchmarkHistogramObserveParallel is Observe from every P at once on one
// histogram: the contended case of a hot handler's latency series.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", DefBuckets)
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0
		for pb.Next() {
			h.Observe(v)
			v += 0.001
		}
	})
}
