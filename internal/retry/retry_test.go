package retry

import (
	"context"
	"errors"
	"testing"
	"time"

	"crowdwifi/internal/api"
)

func TestPolicyDelayFullJitter(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2}

	// Rand = 1-ε pins the delay at the ceiling for each retry index.
	p.Rand = func() float64 { return 0.999999 }
	for i, wantCeil := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, // capped at MaxDelay
	} {
		d := p.Delay(i, 0)
		if d > wantCeil || d < time.Duration(0.99*float64(wantCeil)) {
			t.Errorf("Delay(%d) = %v, want ≈%v", i, d, wantCeil)
		}
	}

	// Rand = 0 gives zero delay: full jitter spans [0, ceil).
	p.Rand = func() float64 { return 0 }
	if d := p.Delay(3, 0); d != 0 {
		t.Errorf("Delay with zero jitter = %v, want 0", d)
	}
}

func TestPolicyDelayHonorsHint(t *testing.T) {
	// The hint is a floor, jittered up to 1.5× to decorrelate shed herds:
	// Rand = 0 sleeps exactly the hint, Rand = 0.5 lands mid-spread.
	p := Policy{Rand: func() float64 { return 0 }}
	if d := p.Delay(0, 7*time.Second); d != 7*time.Second {
		t.Errorf("hinted delay = %v, want 7s", d)
	}
	p.Rand = func() float64 { return 0.5 }
	if d := p.Delay(0, 7*time.Second); d != 8750*time.Millisecond {
		t.Errorf("jittered hinted delay = %v, want 8.75s", d)
	}
	// Repeated sheds double the hint: the server's estimate lost to
	// arrival pressure, so the cadence must back off.
	p.Rand = func() float64 { return 0 }
	if d := p.Delay(2, 100*time.Millisecond); d != 400*time.Millisecond {
		t.Errorf("hint on third attempt = %v, want 400ms", d)
	}
	// Hints are clamped so a hostile server cannot park the client.
	p.Rand = func() float64 { return 0 }
	if d := p.Delay(0, time.Hour); d != api.MaxRetryAfter {
		t.Errorf("clamped hint = %v, want %v", d, api.MaxRetryAfter)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := do(context.Background(), Policy{BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
		func(context.Context) error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoStopsOnPermanentError(t *testing.T) {
	permanent := errors.New("permanent")
	calls := 0
	err := do(context.Background(), Policy{BaseDelay: time.Microsecond},
		func(context.Context) error {
			calls++
			return permanent
		},
		func(err error) bool { return !errors.Is(err, permanent) })
	if !errors.Is(err, permanent) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry of permanent error)", calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	err := do(context.Background(), Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
		func(context.Context) error {
			calls++
			return errors.New("always failing")
		}, nil)
	if err == nil {
		t.Fatal("expected error after exhaustion")
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoRespectsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := do(ctx, Policy{MaxAttempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour,
		Rand: func() float64 { return 1 }},
		func(context.Context) error {
			calls++
			cancel()
			return errors.New("fail then cancel")
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancelled during backoff)", calls)
	}
}

func TestSleepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero sleep: %v", err)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	var transitions []string
	b := NewBreaker(BreakerConfig{
		Threshold: 3,
		Cooldown:  10 * time.Second,
		Now:       func() time.Time { return now },
		OnStateChange: func(from, to State) {
			transitions = append(transitions, from.String()+"->"+to.String())
		},
	})

	// Two failures stay closed; the third opens.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.Record(false)
	}
	if b.current() != Closed {
		t.Fatalf("state = %v after 2 failures", b.current())
	}
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false)
	if b.current() != Open {
		t.Fatalf("state = %v, want Open", b.current())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow while open = %v, want ErrOpen", err)
	}

	// After cooldown one probe is admitted; a second concurrent caller is not.
	now = now.Add(10 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe denied: %v", err)
	}
	if b.current() != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", b.current())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("second half-open caller admitted")
	}

	// Failed probe re-opens; successful probe after another cooldown closes.
	b.Record(false)
	if b.current() != Open {
		t.Fatalf("state = %v after failed probe", b.current())
	}
	now = now.Add(10 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(true)
	if b.current() != Closed {
		t.Fatalf("state = %v after successful probe", b.current())
	}

	want := []string{
		"closed->open", "open->half_open", "half_open->open",
		"open->half_open", "half_open->closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestNilBreakerIsNoOp(t *testing.T) {
	var b *Breaker
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false)
	if b.current() != Closed {
		t.Fatal("nil breaker not closed")
	}
}

func TestBudgetTokens(t *testing.T) {
	b := newBudget(BudgetConfig{Ratio: 0.5, Burst: 2})
	// Starts full: two retries allowed, then empty.
	if !b.withdraw() || !b.withdraw() {
		t.Fatal("initial burst not available")
	}
	if b.withdraw() {
		t.Fatal("withdraw from empty budget")
	}
	// Two deposits refill one token.
	b.deposit()
	if b.withdraw() {
		t.Fatal("half a token should not allow a retry")
	}
	b.deposit()
	if !b.withdraw() {
		t.Fatal("refilled token not available")
	}
}
