// Package retry implements the resilience primitives for the vehicle↔server
// and router↔shard HTTP paths: context-aware exponential backoff with full
// jitter, a per-endpoint retry budget, and a simple circuit breaker. The
// paper's Section 6.3 connectivity experiment shows vehicle↔infrastructure
// contact windows are short and lossy, so every upload must assume the first
// attempt can fail and the retry schedule must neither hammer a struggling
// server (budget) nor waste the contact window waiting (full jitter keeps
// retries uncorrelated across vehicles). A shed — a 503 or 429 carrying
// Retry-After — is the server's answer, not a fault: the Doer returns it at
// once, never retries it and never counts it in a breaker. Waiting out its
// hint is the caller's: the router relays it, and the vehicle parks an
// upload in its outbox or waits and asks again (cmd/crowdwifi-vehicle).
package retry

import (
	"context"
	"math"
	"math/rand"
	"time"
)

// Default policy knobs, tuned for contact windows measured in seconds.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 100 * time.Millisecond
	DefaultMaxDelay    = 5 * time.Second
	DefaultMultiplier  = 2.0
)

// Policy describes an exponential-backoff retry schedule with full jitter.
// The zero value selects the defaults above.
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4).
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first retry (default
	// 100 ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling (default 5 s).
	MaxDelay time.Duration
	// Multiplier grows the ceiling per retry (default 2).
	Multiplier float64
	// Rand supplies jitter in [0,1); nil selects math/rand. Tests inject a
	// deterministic source.
	Rand func() float64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Multiplier <= 1 {
		p.Multiplier = DefaultMultiplier
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// Delay returns the sleep before retry number retryIdx (0 for the first
// retry), drawn uniformly from [0, min(MaxDelay, BaseDelay·Multiplier^retryIdx))
// (the "full jitter" scheme), which decorrelates retry storms across
// vehicles.
func (p Policy) Delay(retryIdx int) time.Duration {
	p = p.withDefaults()
	ceil := float64(p.BaseDelay) * math.Pow(p.Multiplier, float64(retryIdx))
	if ceil > float64(p.MaxDelay) {
		ceil = float64(p.MaxDelay)
	}
	return time.Duration(p.Rand() * ceil)
}

// Sleep blocks for d or until ctx ends, returning ctx's error in that case.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
