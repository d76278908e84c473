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

// TestDoerBreakerFastFails: a fault opens the breaker, a 503 with no
// Retry-After included (it is not a shed), and an open breaker refuses the
// next request without sending it.
func TestDoerBreakerFastFails(t *testing.T) {
	for _, code := range []int{http.StatusServiceUnavailable, http.StatusBadGateway} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			calls.Add(1)
			w.WriteHeader(code)
		}))
		t.Cleanup(ts.Close)

		reg := obs.NewRegistry()
		m := NewMetrics(reg)
		br := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Hour, OnStateChange: m.BreakerHook()})
		d := NewDoer(http.DefaultClient, fastPolicy(2), WithBreaker(br), WithMetrics(m))

		// First request: 2 attempts, both failing → breaker opens.
		resp, err := d.Do(newPost(t, ts.URL, "x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if br.current() != Open {
			t.Fatalf("%d: breaker state = %v, want Open", code, br.current())
		}
		// Second request never reaches the server.
		before := calls.Load()
		if _, err := d.Do(newPost(t, ts.URL, "x")); !errors.Is(err, ErrOpen) {
			t.Fatalf("%d: err = %v, want breaker-open", code, err)
		}
		if calls.Load() != before {
			t.Fatalf("%d: open breaker let a request through", code)
		}
		if m.breakerDenied.Value() != 1 {
			t.Fatalf("%d: breaker denied metric = %d, want 1", code, m.breakerDenied.Value())
		}
		if m.breakerState.Value() != float64(Open) {
			t.Fatalf("%d: breaker state gauge = %v, want %v", code, m.breakerState.Value(), float64(Open))
		}
	}
}

// TestDoerShedOpensNoBreaker: a 503 or 429 carrying Retry-After is the
// server's answer. It comes back after one attempt with its hint intact,
// and however many arrive, the breaker stays closed and nothing is retried.
func TestDoerShedOpensNoBreaker(t *testing.T) {
	for _, code := range []int{http.StatusServiceUnavailable, http.StatusTooManyRequests} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			calls.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(code)
		}))
		t.Cleanup(ts.Close)
		m := NewMetrics(obs.NewRegistry())
		br := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Hour})
		d := NewDoer(http.DefaultClient, fastPolicy(4), WithBreaker(br), WithMetrics(m))
		for i := 0; i < 5; i++ {
			resp, err := d.Do(newPost(t, ts.URL, "x"))
			if err != nil {
				t.Fatalf("%d: shed %d: %v", code, i, err)
			}
			resp.Body.Close()
			if resp.StatusCode != code || resp.Header.Get("Retry-After") != "1" {
				t.Fatalf("%d: got %d, Retry-After %q; want the shed itself", code, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}
		if got := calls.Load(); got != 5 {
			t.Errorf("%d: 5 sheds reached the server %d times, want 5 (one attempt each)", code, got)
		}
		if br.current() != Closed {
			t.Errorf("%d: breaker %v after 5 sheds, want closed", code, br.current())
		}
		if v := m.retries.Value(); v != 0 {
			t.Errorf("%d: retries metric = %d, want 0", code, v)
		}
	}
}

// TestDoerRefusedConnectionOpensBreaker: a shard that is gone still trips
// its breaker, so the router stops waiting on it.
func TestDoerRefusedConnectionOpensBreaker(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // nothing listens at url now: every dial is refused

	br := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	d := NewDoer(http.DefaultClient, fastPolicy(2), WithBreaker(br))
	if _, err := d.Do(newPost(t, url, "x")); err == nil || errors.Is(err, ErrOpen) {
		t.Fatalf("first request: err = %v, want the refused dial", err)
	}
	if br.current() != Open {
		t.Fatalf("breaker %v after 2 refused dials, want open", br.current())
	}
	if _, err := d.Do(newPost(t, url, "x")); !errors.Is(err, ErrOpen) {
		t.Fatalf("second request: err = %v, want breaker-open", err)
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
