package obs

import (
	"encoding/json"
	"math"
	"net/http"
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
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 16 {
		t.Fatalf("sum = %g, want 16", h.Sum())
	}
	// Bucket counts: le=1 → {0.5, 1}, le=2 → +{1.5}, le=5 → +{3}, +Inf → +{10}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
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
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
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
	r.OnScrape(func() { calls++; g.Set(float64(calls)) })
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
	if got := r.Histogram("conc_seconds", "", []float64{0.5}).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test_seconds", "", []float64{0.1, 0.2, 0.4, 0.8})

	// Empty histogram: no estimate.
	if v := h.Quantile(0.5); !math.IsNaN(v) {
		t.Fatalf("empty histogram p50 = %v, want NaN", v)
	}

	// 100 samples spread uniformly through (0, 0.1]: every quantile
	// interpolates inside the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.001)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-0.05) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.05", p50)
	}
	if p99 := h.Quantile(0.99); math.Abs(p99-0.099) > 1e-9 {
		t.Fatalf("p99 = %v, want 0.099", p99)
	}

	// One outlier beyond the last bound lands in +Inf: the estimate clamps
	// to the last finite bound once the rank reaches it.
	h.Observe(10)
	if p := h.Quantile(1); p != 0.8 {
		t.Fatalf("p100 with +Inf sample = %v, want clamp to 0.8", p)
	}

	// Out-of-range q.
	if v := h.Quantile(1.5); !math.IsNaN(v) {
		t.Fatalf("q=1.5 = %v, want NaN", v)
	}
	var nilH *Histogram
	if v := nilH.Quantile(0.5); !math.IsNaN(v) {
		t.Fatalf("nil histogram = %v, want NaN", v)
	}
}

func TestRegistryQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "", []float64{0.1, 1}, L("route", "/report"))
	r.Histogram("empty_seconds", "", nil) // never observed: skipped
	r.Counter("not_a_histogram", "").Inc()
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}

	q := r.Quantiles()
	if len(q) != 1 {
		t.Fatalf("quantiles for %d series, want 1: %+v", len(q), q)
	}
	est, ok := q[`req_seconds{route="/report"}`]
	if !ok {
		t.Fatalf("series key missing: %+v", q)
	}
	for _, p := range []string{"p50", "p95", "p99"} {
		v, ok := est[p]
		if !ok {
			t.Fatalf("%s missing: %+v", p, est)
		}
		if v <= 0 || v > 0.1 {
			t.Fatalf("%s = %v, want within first bucket", p, v)
		}
	}
	if got := est["count"]; got != 10 {
		t.Fatalf("count = %v, want 10 (quantiles must carry their sample count)", got)
	}

	var nilR *Registry
	if nilR.Quantiles() != nil {
		t.Fatal("nil registry quantiles not nil")
	}
}

func TestDebugVarsIncludesQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vars_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	srv := httptest.NewServer(NewDebugMux(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("vars not valid JSON: %v", err)
	}
	if _, ok := doc["memstats"]; !ok {
		t.Fatal("standard expvar memstats missing")
	}
	var q map[string]map[string]float64
	if err := json.Unmarshal(doc["crowdwifi_histogram_quantiles"], &q); err != nil {
		t.Fatalf("quantile block: %v (doc keys: %v)", err, len(doc))
	}
	if _, ok := q["vars_seconds"]; !ok {
		t.Fatalf("vars_seconds quantiles missing: %+v", q)
	}
}
