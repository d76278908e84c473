package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/retry"
)

// sheddingServer returns 503 with the given Retry-After header until
// recovered is flipped, then accepts everything.
func sheddingServer(t *testing.T, retryAfter string, recovered *atomic.Bool) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if recovered != nil && recovered.Load() {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"accepted":1}`)
			return
		}
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, "server over capacity", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestStatusErrorCarriesRetryAfter(t *testing.T) {
	url := sheddingServer(t, "3", nil)
	cv := &CrowdVehicle{ID: "v1", BaseURL: url}
	err := cv.UploadReport(context.Background(), api.Report{Segment: "s"})
	if err == nil {
		t.Fatal("UploadReport succeeded against a shedding server")
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a StatusError", err)
	}
	if se.RetryAfter != 3*time.Second {
		t.Fatalf("StatusError.RetryAfter = %v, want 3s", se.RetryAfter)
	}
	if got := RetryAfterHint(err); got != 3*time.Second {
		t.Fatalf("RetryAfterHint = %v, want 3s", got)
	}
}

func TestRetryAfterParsing(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"3", 3 * time.Second},
		{"999", api.MaxRetryAfter},        // capped: a bad server must not park clients forever
		{"9223372037", api.MaxRetryAfter}, // overflows a Duration when scaled to seconds
		{"0", 0},
		{"-5", 0},
		{"soon", 0}, // HTTP-date form unsupported on purpose; treat as absent
		{"", 0},
	}
	for _, tc := range cases {
		url := sheddingServer(t, tc.header, nil)
		cv := &CrowdVehicle{ID: "v1", BaseURL: url}
		err := cv.UploadReport(context.Background(), api.Report{Segment: "s"})
		if got := RetryAfterHint(err); got != tc.want {
			t.Errorf("Retry-After %q: hint = %v, want %v", tc.header, got, tc.want)
		}
	}
}

func TestRetryAfterHintNonStatusErrors(t *testing.T) {
	if got := RetryAfterHint(nil); got != 0 {
		t.Fatalf("RetryAfterHint(nil) = %v, want 0", got)
	}
	if got := RetryAfterHint(errors.New("plain")); got != 0 {
		t.Fatalf("RetryAfterHint(plain error) = %v, want 0", got)
	}
}

// TestDrainOutboxSurfacesRetryAfter is the satellite regression: a drain
// interrupted by a shedding server must return an error whose RetryAfterHint
// matches the server's header, so callers pace their retry loop by the
// server's own hint instead of a guessed backoff.
func TestDrainOutboxSurfacesRetryAfter(t *testing.T) {
	var recovered atomic.Bool
	url := sheddingServer(t, "5", &recovered)
	cv := &CrowdVehicle{ID: "v1", BaseURL: url, Outbox: NewOutbox(8)}

	err := cv.UploadReport(context.Background(), api.Report{Segment: "s"})
	if !errors.Is(err, ErrQueued) {
		t.Fatalf("UploadReport err = %v, want ErrQueued", err)
	}
	if cv.Outbox.Len() != 1 {
		t.Fatalf("outbox len = %d, want 1", cv.Outbox.Len())
	}

	n, err := cv.DrainOutbox(context.Background())
	if n != 0 || err == nil {
		t.Fatalf("DrainOutbox = (%d, %v), want (0, transient error)", n, err)
	}
	if got := RetryAfterHint(err); got != 5*time.Second {
		t.Fatalf("drain RetryAfterHint = %v, want 5s", got)
	}
	if cv.Outbox.Len() != 1 {
		t.Fatalf("outbox len after failed drain = %d, want 1 (entry must stay parked)", cv.Outbox.Len())
	}

	recovered.Store(true)
	n, err = cv.DrainOutbox(context.Background())
	if n != 1 || err != nil {
		t.Fatalf("DrainOutbox after recovery = (%d, %v), want (1, nil)", n, err)
	}
	if cv.Outbox.Len() != 0 {
		t.Fatalf("outbox len after recovery = %d, want 0", cv.Outbox.Len())
	}
}

// TestClientAndDoerAgree pins the two consumers of a shed to one reading of
// it. A status the outbox parks as transient is exactly a status the retry
// doer retries (408 was once parked yet never retried), unless it is
// a shed: a 503 that carries a hint reaches the server once, and the hint
// the StatusError carries is api.RetryAfter's, the one the outbox waits.
func TestClientAndDoerAgree(t *testing.T) {
	var status atomic.Int64
	var ms, secs atomic.Value
	ms.Store("")
	secs.Store("")
	var mu sync.Mutex
	var arrivals []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		mu.Unlock()
		if v := ms.Load().(string); v != "" {
			w.Header().Set(api.RetryAfterMsHeader, v)
		}
		if v := secs.Load().(string); v != "" {
			w.Header().Set("Retry-After", v)
		}
		w.WriteHeader(int(status.Load()))
	}))
	defer ts.Close()
	// Two attempts, no jitter: a retried request arrives exactly twice, the
	// second time one zero backoff after the first.
	policy := retry.Policy{MaxAttempts: 2, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond, Rand: func() float64 { return 0 }}
	upload := func() ([]time.Time, error) {
		mu.Lock()
		arrivals = nil
		mu.Unlock()
		cv := &CrowdVehicle{ID: "v1", BaseURL: ts.URL, HTTP: retry.NewDoer(nil, policy, retry.WithBudget(retry.BudgetConfig{Ratio: 1, Burst: 1000}))}
		err := cv.UploadReport(context.Background(), api.Report{Vehicle: "v1", Segment: "s"})
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Time(nil), arrivals...), err
	}

	for code := 400; code < 600; code++ {
		status.Store(int64(code))
		seen, err := upload()
		if parked, retried := transientError(err), len(seen) == 2; parked != retried {
			t.Errorf("status %d: outbox parks it = %v, doer retries it = %v", code, parked, retried)
		}
	}

	status.Store(http.StatusServiceUnavailable)
	for _, tc := range []struct{ ms, secs string }{{"30", ""}, {"20", "1"}, {"0", ""}, {"soon", "-1"}} {
		ms.Store(tc.ms)
		secs.Store(tc.secs)
		h := http.Header{}
		h.Set(api.RetryAfterMsHeader, tc.ms)
		h.Set("Retry-After", tc.secs)
		want := api.RetryAfter(h)
		seen, err := upload()
		if got := RetryAfterHint(err); got != want {
			t.Errorf("ms=%q secs=%q: client hint %v, want %v", tc.ms, tc.secs, got, want)
		}
		if !transientError(err) {
			t.Errorf("ms=%q secs=%q: outbox does not park %v", tc.ms, tc.secs, err)
		}
		// A hint makes the 503 a shed, answered once; without one it is a
		// fault, retried.
		wantAttempts := 2
		if want > 0 {
			wantAttempts = 1
		}
		if len(seen) != wantAttempts {
			t.Errorf("ms=%q secs=%q: %d attempts, want %d", tc.ms, tc.secs, len(seen), wantAttempts)
		}
	}
}
