package retry

import (
	"fmt"
	"net/http"
	"sync"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs/trace"
)

// HTTPDoer abstracts *http.Client so the Doer can wrap any transport,
// including the chaos injector.
type HTTPDoer interface {
	Do(req *http.Request) (*http.Response, error)
}

// BudgetConfig bounds how many retries an endpoint may issue relative to its
// request volume: every initial request deposits Ratio tokens (capped at
// Burst) and every retry withdraws one, so a fully-down server costs at most
// Burst + Ratio·requests extra load instead of MaxAttempts×.
type BudgetConfig struct {
	// Ratio is the retries allowed per request (default 0.5).
	Ratio float64
	// Burst is the token cap (default 10).
	Burst float64
}

func (c BudgetConfig) withDefaults() BudgetConfig {
	if c.Ratio <= 0 {
		c.Ratio = 0.5
	}
	if c.Burst <= 0 {
		c.Burst = 10
	}
	return c
}

// budget is one endpoint's token bucket. Buckets start full so short bursts
// of failures right after startup can still retry.
type budget struct {
	mu     sync.Mutex
	tokens float64
	cfg    BudgetConfig
}

func newBudget(cfg BudgetConfig) *budget {
	return &budget{tokens: cfg.Burst, cfg: cfg}
}

func (b *budget) deposit() {
	b.mu.Lock()
	b.tokens += b.cfg.Ratio
	if b.tokens > b.cfg.Burst {
		b.tokens = b.cfg.Burst
	}
	b.mu.Unlock()
}

func (b *budget) withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Doer wraps an HTTPDoer with retries, a per-endpoint retry budget, and an
// optional circuit breaker. It implements HTTPDoer itself, so it drops into
// any client accepting one.
type Doer struct {
	next    HTTPDoer
	policy  Policy
	breaker *Breaker
	budgets BudgetConfig
	metrics Metrics

	mu        sync.Mutex
	perTarget map[string]*budget
}

// DoerOption configures a Doer.
type DoerOption func(*Doer)

// WithBreaker attaches a circuit breaker shared by every request through
// this Doer.
func WithBreaker(b *Breaker) DoerOption {
	return func(d *Doer) { d.breaker = b }
}

// WithBudget overrides the per-endpoint retry budget. Without it every Doer
// runs the default budget (ratio 0.5, burst 10); the chaos and doer tests
// loosen or tighten it through this option.
func WithBudget(cfg BudgetConfig) DoerOption {
	return func(d *Doer) { d.budgets = cfg }
}

// WithMetrics attaches retry metrics.
func WithMetrics(m Metrics) DoerOption {
	return func(d *Doer) { d.metrics = m }
}

// NewDoer wraps next (nil selects http.DefaultClient) with policy.
func NewDoer(next HTTPDoer, policy Policy, opts ...DoerOption) *Doer {
	if next == nil {
		next = http.DefaultClient
	}
	d := &Doer{
		next:      next,
		policy:    policy.withDefaults(),
		budgets:   BudgetConfig{}.withDefaults(),
		perTarget: map[string]*budget{},
	}
	for _, opt := range opts {
		opt(d)
	}
	d.budgets = d.budgets.withDefaults()
	return d
}

func (d *Doer) budget(endpoint string) *budget {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.perTarget[endpoint]
	if !ok {
		b = newBudget(d.budgets)
		d.perTarget[endpoint] = b
	}
	return b
}

// Do issues req with retries. Failed attempts are retried when the error is
// transport-level or the status is in api.RetryableStatus, the request body
// can be replayed (GetBody set, or no body), the retry budget allows it, and
// the request context is still live. The final attempt's response or error is
// returned unchanged, so callers still observe terminal statuses. A shed is
// not a failure: it is returned after one attempt and the breaker records a
// success.
func (d *Doer) Do(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	b := d.budget(req.URL.Path)
	b.deposit()

	for attempt := 0; ; attempt++ {
		// Each attempt is its own child span under the caller's trace, and
		// each stamps its own traceparent — so the server-side spans of every
		// retry hang off the attempt that caused them, not the logical
		// request as a whole.
		actx, span := trace.StartChild(ctx, "retry.attempt")
		span.SetAttr("attempt", attempt)
		span.SetAttr("http.method", req.Method)
		span.SetAttr("http.path", req.URL.Path)

		if err := d.breaker.Allow(); err != nil {
			d.metrics.breakerDenied.Inc()
			err = fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
			span.SetError(err)
			span.End()
			return nil, err
		}
		attemptReq := req
		if attempt > 0 {
			attemptReq = req.Clone(ctx)
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					err = fmt.Errorf("retry: rewind request body: %w", err)
					span.SetError(err)
					span.End()
					return nil, err
				}
				attemptReq.Body = body
			}
		}
		trace.Inject(actx, attemptReq.Header)
		resp, err := d.next.Do(attemptReq)

		failure := err != nil || api.RetryableStatus(resp.StatusCode) && !shed(resp)
		d.breaker.Record(!failure)
		if err != nil {
			span.SetError(err)
		} else {
			span.SetAttr("http.status", resp.StatusCode)
			if failure {
				span.SetError(fmt.Errorf("retryable status %d", resp.StatusCode))
			}
		}
		if !failure {
			span.End()
			return resp, nil
		}
		if ctx.Err() != nil {
			// The caller is gone; report its cancellation, not ours.
			api.DrainClose(resp)
			if err == nil {
				err = ctx.Err()
			}
			span.SetError(err)
			span.End()
			return nil, err
		}
		last := attempt+1 >= d.policy.MaxAttempts ||
			(req.GetBody == nil && req.Body != nil)
		if last {
			d.metrics.exhausted.Inc()
			span.AddEvent("attempts exhausted")
			span.End()
			return resp, err
		}
		if !b.withdraw() {
			d.metrics.budgetDenied.Inc()
			span.AddEvent("retry budget exhausted")
			span.End()
			return resp, err
		}
		api.DrainClose(resp)
		delay := d.policy.Delay(attempt)
		d.metrics.retries.Inc()
		span.End()
		if werr := Sleep(ctx, delay); werr != nil {
			return nil, werr
		}
	}
}

// shed reports whether resp is a load shed: a 503 or 429 that tells the
// caller when to come back. The server is up and has decided, so retrying at
// once would only add to the load it is shedding, and a breaker that counted
// it would refuse the requests the server is still serving.
func shed(resp *http.Response) bool {
	return (resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests) &&
		api.RetryAfter(resp.Header) > 0
}
