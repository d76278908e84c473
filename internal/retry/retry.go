// Package retry implements the resilience primitives for the vehicle↔server
// HTTP path: context-aware exponential backoff with full jitter, a
// per-endpoint retry budget, and a simple circuit breaker. The paper's
// Section 6.3 connectivity experiment shows vehicle↔infrastructure contact
// windows are short and lossy, so every upload must assume the first attempt
// can fail and the retry schedule must neither hammer a struggling server
// (budget, Retry-After) nor waste the contact window waiting (full jitter
// keeps retries uncorrelated across vehicles).
package retry

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"crowdwifi/internal/api"
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
// retry). A positive hint — a server-sent Retry-After — overrides the
// computed backoff, clamped to a hard cap; otherwise the delay is drawn
// uniformly from [0, min(MaxDelay, BaseDelay·Multiplier^retryIdx)) (the
// "full jitter" scheme), which decorrelates retry storms across vehicles.
func (p Policy) Delay(retryIdx int, hint time.Duration) time.Duration {
	p = p.withDefaults()
	if hint > 0 {
		// The hint is the server's one constant for a full family; it
		// cannot see the competing demand. Honor it verbatim on the first
		// retry, but double it per repeated shed: a client rejected again at
		// the hinted time is evidence the family is still full, and
		// constant-cadence retries at saturation just burn server CPU on
		// 503s.
		for i := 0; i < retryIdx && hint < api.MaxRetryAfter; i++ {
			hint *= 2
		}
		if hint > api.MaxRetryAfter {
			hint = api.MaxRetryAfter
		}
		// Retry-After is a lower bound, not an appointment: a fleet that
		// sleeps exactly the hinted time wakes as one herd, slams the
		// queue, and leaves the server idle in between. Spread wakeups
		// across [hint, 1.5·hint) so the backlog arrives as a stream.
		return hint + time.Duration(p.Rand()*0.5*float64(hint))
	}
	ceil := float64(p.BaseDelay) * math.Pow(p.Multiplier, float64(retryIdx))
	if ceil > float64(p.MaxDelay) {
		ceil = float64(p.MaxDelay)
	}
	return time.Duration(p.Rand() * ceil)
}

// do runs op under the policy until it succeeds, returns a non-retryable
// error, the attempts are exhausted, or ctx ends. classify reports whether an
// error is worth retrying; nil retries every error. The last error is
// returned on exhaustion.
func do(ctx context.Context, p Policy, op func(ctx context.Context) error, classify func(error) bool) error {
	p = p.withDefaults()
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			if werr := Sleep(ctx, p.Delay(attempt-1, 0)); werr != nil {
				return werr
			}
		}
		if err = op(ctx); err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%w: %w", cerr, err)
		}
		if classify != nil && !classify(err) {
			return err
		}
	}
	return err
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
