package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock drives a WindowedHistogram deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestWindow(t *testing.T) (*WindowedHistogram, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := NewRegistry()
	h := r.Histogram("w_test_seconds", "test", []float64{0.1, 1, 10})
	w := NewWindowedHistogram(h, 60*time.Second, 6, clk.now)
	if w == nil {
		t.Fatal("NewWindowedHistogram returned nil for non-nil histogram")
	}
	return w, clk
}

func TestWindowedHistogramExpiry(t *testing.T) {
	w, clk := newTestWindow(t)
	for i := 0; i < 10; i++ {
		w.Observe(0.05)
	}
	if got := w.Count(); got != 10 {
		t.Fatalf("window count = %d, want 10", got)
	}
	// Still inside the window: counts survive rotation across slots.
	clk.advance(30 * time.Second)
	w.Observe(5)
	if got := w.Count(); got != 11 {
		t.Fatalf("window count after 30s = %d, want 11", got)
	}
	// 40s more puts the first burst (age 70s) outside the 60s window but
	// keeps the second observation (age 40s).
	clk.advance(40 * time.Second)
	if got := w.Count(); got != 1 {
		t.Fatalf("window count after expiry = %d, want 1", got)
	}
	if got := w.Sum(); got != 5 {
		t.Fatalf("window sum after expiry = %v, want 5", got)
	}
	// Far future: window fully empty, cumulative core untouched.
	clk.advance(10 * time.Minute)
	if got := w.Count(); got != 0 {
		t.Fatalf("window count after full decay = %d, want 0", got)
	}
	if got := w.hist.Count(); got != 11 {
		t.Fatalf("cumulative count = %d, want 11 (window must not decay /metrics)", got)
	}
}

func TestWindowedHistogramQuantileTracksRecentTraffic(t *testing.T) {
	w, clk := newTestWindow(t)
	// Old slow traffic...
	for i := 0; i < 100; i++ {
		w.Observe(5)
	}
	// ...ages out; recent traffic is fast.
	clk.advance(2 * time.Minute)
	for i := 0; i < 100; i++ {
		w.Observe(0.05)
	}
	if q := w.Quantile(0.99); q > 0.1 {
		t.Fatalf("window p99 = %v, want ≤ 0.1 (old slow traffic leaked in)", q)
	}
	// Lifetime quantile still remembers the slow half.
	if q := w.hist.Quantile(0.99); q <= 0.1 {
		t.Fatalf("lifetime p99 = %v, want > 0.1", q)
	}
}

func TestWindowedHistogramEmptyQuantile(t *testing.T) {
	w, _ := newTestWindow(t)
	if q := w.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty window quantile = %v, want NaN (matches Histogram.Quantile)", q)
	}
	var nilW *WindowedHistogram
	nilW.Observe(1) // must not panic
	if nilW.Count() != 0 || !math.IsNaN(nilW.Quantile(0.5)) {
		t.Fatal("nil WindowedHistogram must read as empty")
	}
}

func TestRegistryWindowedHistogramUpgrade(t *testing.T) {
	r := NewRegistry()
	plain := r.Histogram("upgrade_seconds", "test", nil)
	plain.Observe(0.2)
	w := r.WindowedHistogram("upgrade_seconds", "test", nil, time.Minute, 6)
	if w.hist != plain {
		t.Fatal("upgrade must preserve the cumulative core")
	}
	if got := w.hist.Count(); got != 1 {
		t.Fatalf("pre-upgrade observation lost: count = %d", got)
	}
	// Same name again returns the same windowed instance.
	if again := r.WindowedHistogram("upgrade_seconds", "test", nil, time.Minute, 6); again != w {
		t.Fatal("re-registration must return the existing windowed series")
	}
	// And Histogram() on a windowed series hands back the shared core.
	if r.Histogram("upgrade_seconds", "test", nil) != plain {
		t.Fatal("Histogram on a windowed series must return its cumulative core")
	}
}

func TestWindowedHistogramExposition(t *testing.T) {
	r := NewRegistry()
	w := r.WindowedHistogram("expo_seconds", "Windowed exposition.", []float64{1}, time.Minute, 6)
	w.Observe(0.5)
	w.Observe(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`expo_seconds_bucket{le="1"} 1`,
		`expo_seconds_bucket{le="+Inf"} 2`,
		`expo_seconds_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWindowedHistogramConcurrency(t *testing.T) {
	w, clk := newTestWindow(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Observe(float64(i%3) + 0.05)
				if i%100 == 0 {
					clk.advance(time.Millisecond)
					w.Quantile(0.99)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := w.hist.Count(); got != 8000 {
		t.Fatalf("cumulative count = %d, want 8000", got)
	}
}
