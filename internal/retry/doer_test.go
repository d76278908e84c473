package retry

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/obs"
)

// fastPolicy keeps test backoffs in the microsecond range.
// doerFunc adapts a function to HTTPDoer.
type doerFunc func(*http.Request) (*http.Response, error)

func (f doerFunc) Do(req *http.Request) (*http.Response, error) { return f(req) }

func fastPolicy(attempts int) Policy {
	return Policy{
		MaxAttempts: attempts,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Multiplier:  2,
	}
}

func newPost(t *testing.T, url, body string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestDoerRetries5xxThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		if string(got) != "payload" {
			t.Errorf("attempt body = %q (request body not rewound)", got)
		}
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	d := NewDoer(http.DefaultClient, fastPolicy(5), WithMetrics(m))
	resp, err := d.Do(newPost(t, ts.URL+"/v1/reports", "payload"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if v := m.retries.Value(); v != 2 {
		t.Fatalf("retries metric = %d, want 2", v)
	}
}

func TestDoerReturnsTerminal5xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	d := NewDoer(http.DefaultClient, fastPolicy(3), WithMetrics(m))
	resp, err := d.Do(newPost(t, ts.URL, "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want the terminal 500", resp.StatusCode)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3", got)
	}
	if m.exhausted.Value() != 1 {
		t.Fatalf("exhausted metric = %d, want 1", m.exhausted.Value())
	}
}

func TestDoerDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()

	d := NewDoer(http.DefaultClient, fastPolicy(5))
	resp, err := d.Do(newPost(t, ts.URL, "x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (4xx is permanent)", calls.Load())
	}
}

func TestDoerHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	// Jitter pinned to zero: any wait must come from the Retry-After hint.
	p := fastPolicy(3)
	p.Rand = func() float64 { return 0 }
	d := NewDoer(http.DefaultClient, p)
	start := time.Now()
	resp, err := d.Do(newPost(t, ts.URL, "x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("elapsed = %v, want ≥ 1 s from Retry-After", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d", calls.Load())
	}
}

func TestDoerBudgetSuppressesRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	// Burst 1, ratio tiny: the first request may retry once; the following
	// requests have an empty bucket and fail fast.
	d := NewDoer(http.DefaultClient, fastPolicy(4),
		WithBudget(BudgetConfig{Ratio: 0.001, Burst: 1}), WithMetrics(m))
	for i := 0; i < 3; i++ {
		resp, err := d.Do(newPost(t, ts.URL+"/ep", "x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// 3 requests, but only 1 retry total: 4 server calls.
	if got := calls.Load(); got != 4 {
		t.Fatalf("server calls = %d, want 4 (budget must cap retries)", got)
	}
	// Denials: request 1 after its single retry, requests 2 and 3 at once.
	if m.budgetDenied.Value() != 3 {
		t.Fatalf("budget denied metric = %d, want 3", m.budgetDenied.Value())
	}
}

// TestDoerDefaultBudgetStopsAtBurst pins the budget every Doer runs without
// WithBudget: the bucket starts at its burst of 10, so a request against a
// server that always fails retries 10 times however many attempts the policy
// allows, and the next request, finding 0.5 tokens, does not retry at all.
func TestDoerDefaultBudgetStopsAtBurst(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	m := NewMetrics(obs.NewRegistry())
	d := NewDoer(http.DefaultClient, fastPolicy(100), WithMetrics(m))
	for i, want := range []int64{11, 1} {
		calls.Store(0)
		resp, err := d.Do(newPost(t, ts.URL+"/ep", "x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := calls.Load(); got != want {
			t.Fatalf("request %d: server calls = %d, want %d (default burst 10, ratio 0.5)", i+1, got, want)
		}
	}
	if m.budgetDenied.Value() != 2 {
		t.Fatalf("budget denied metric = %d, want 2", m.budgetDenied.Value())
	}
}

func TestDoerBreakerFastFails(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	br := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Hour, OnStateChange: m.BreakerHook()})
	d := NewDoer(http.DefaultClient, fastPolicy(2), WithBreaker(br), WithMetrics(m))

	// First request: 2 attempts, both 503 → breaker opens.
	resp, err := d.Do(newPost(t, ts.URL, "x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if br.current() != Open {
		t.Fatalf("breaker state = %v, want Open", br.current())
	}
	// Second request never reaches the server.
	before := calls.Load()
	if _, err := d.Do(newPost(t, ts.URL, "x")); !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want breaker-open", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker let a request through")
	}
	if m.breakerDenied.Value() != 1 {
		t.Fatalf("breaker denied metric = %d, want 1", m.breakerDenied.Value())
	}
	if m.breakerState.Value() != float64(Open) {
		t.Fatalf("breaker state gauge = %v, want %v", m.breakerState.Value(), float64(Open))
	}
}

func TestDoerNetworkErrorRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	boom := errors.New("connection reset by chaos")
	inner := doerFunc(func(req *http.Request) (*http.Response, error) {
		if calls.Add(1) < 3 {
			return nil, boom
		}
		return http.DefaultClient.Do(req)
	})
	d := NewDoer(inner, fastPolicy(4))
	resp, err := d.Do(newPost(t, ts.URL, "x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestDoerUnreplayableBodyNotRetried(t *testing.T) {
	var calls atomic.Int64
	inner := doerFunc(func(*http.Request) (*http.Response, error) {
		calls.Add(1)
		return nil, errors.New("boom")
	})
	d := NewDoer(inner, fastPolicy(5))
	// A raw io.Reader body (not a *bytes.Reader) leaves GetBody nil.
	req, err := http.NewRequest(http.MethodPost, "http://example.invalid/x",
		io.MultiReader(bytes.NewReader([]byte("unreplayable"))))
	if err != nil {
		t.Fatal(err)
	}
	req.GetBody = nil
	if _, err := d.Do(req); err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (body cannot be replayed)", calls.Load())
	}
}

func TestDoerContextCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	inner := doerFunc(func(*http.Request) (*http.Response, error) {
		calls.Add(1)
		cancel()
		return nil, errors.New("fail")
	})
	p := Policy{MaxAttempts: 5, BaseDelay: time.Hour, MaxDelay: time.Hour, Rand: func() float64 { return 1 }}
	d := NewDoer(inner, p)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://example.invalid/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Do(req); err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (cancelled before any retry)", calls.Load())
	}
}
