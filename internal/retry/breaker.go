package retry

import (
	"errors"
	"sync"
	"time"
)

// State is a circuit breaker state.
type State int

const (
	// Closed lets every request through.
	Closed State = iota
	// Open fast-fails every request until the cooldown elapses.
	Open
	// HalfOpen lets exactly one probe through; its outcome decides the
	// next state.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// ErrOpen is returned by Allow while the breaker is open (or a half-open
// probe is already in flight).
var ErrOpen = errors.New("retry: circuit breaker open")

// BreakerConfig configures a Breaker. The zero value selects the defaults.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before letting a
	// half-open probe through (default 2 s).
	Cooldown time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
	// OnStateChange, when non-nil, observes every transition.
	OnStateChange func(from, to State)
}

// Breaker is a simple consecutive-failure circuit breaker. A nil *Breaker is
// a no-op that allows everything, so wiring it is optional.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	onChange  func(from, to State)

	state    State
	failures int
	openedAt time.Time
}

// NewBreaker builds a breaker from cfg.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{
		threshold: cfg.Threshold,
		cooldown:  cfg.Cooldown,
		now:       cfg.Now,
		onChange:  cfg.OnStateChange,
	}
}

// transition must be called with b.mu held.
func (b *Breaker) transition(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onChange != nil {
		b.onChange(from, to)
	}
}

// Allow reports whether a request may proceed. In the open state it returns
// ErrOpen until the cooldown elapses, at which point the caller becomes the
// half-open probe.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.transition(HalfOpen)
			return nil
		}
		return ErrOpen
	default: // HalfOpen: a probe is already in flight.
		return ErrOpen
	}
}

// Record reports one request outcome. Failures are transport-level: network
// errors and 5xx/429 responses; a 4xx or a shed (a 503 or 429 with
// Retry-After) means the server is reachable and counts as success.
func (b *Breaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if success {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = b.now()
			b.transition(Open)
		}
	case HalfOpen:
		if success {
			b.failures = 0
			b.transition(Closed)
			return
		}
		b.openedAt = b.now()
		b.transition(Open)
	case Open:
		// Late results from before the trip; ignore.
	}
}

// State returns the current state (Closed for a nil breaker).
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
