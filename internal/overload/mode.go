// Package overload keeps the crowd-server upright when offered load or disk
// health exceeds what it can absorb, with two bounds rather than controllers:
// a fixed concurrency cap per endpoint family, fronted by a short FIFO queue
// with a sojourn deadline and shedding with one constant Retry-After
// (Admission); and a durability machine, healthy → read-only → recovering →
// healthy (Controller). A WAL write/fsync error or a full disk flips the
// server read-only: lookups keep serving from the last fused state while
// mutations get 503 + Retry-After, and a background disk probe walks the
// server back to healthy once writes stick again. Never lose an acked report,
// never serve a lookup from torn state, and tell vehicles when to come back.
package overload

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is one state of the server-wide durability machine.
type Mode int32

// The mode values are the crowdwifi_overload_mode gauge's encoding; 1 was a
// load-driven mode that no longer exists and stays unassigned so the gauge
// keeps meaning what it always has.
const (
	// ModeHealthy admits everything through the per-family caps.
	ModeHealthy Mode = 0
	// ModeReadOnly rejects all mutations (the WAL cannot accept writes);
	// lookups keep serving from the last fused state.
	ModeReadOnly Mode = 2
	// ModeRecovering re-enables writes on probation after the disk probe
	// succeeds; a further durability fault drops straight back to read-only.
	ModeRecovering Mode = 3
)

// String returns the wire/metric spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeHealthy:
		return "healthy"
	case ModeReadOnly:
		return "read-only"
	case ModeRecovering:
		return "recovering"
	default:
		return "unknown"
	}
}

const (
	// probeInterval is how often Run probes the disk while read-only or
	// recovering.
	probeInterval = 500 * time.Millisecond
	// recoverAfter is how many consecutive probe successes promote
	// recovering → healthy.
	recoverAfter = 3
)

// Controller is the durability state machine. All methods are safe for
// concurrent use.
type Controller struct {
	probe        func(ctx context.Context) error
	onTransition func(from, to Mode, reason string)

	mode atomic.Int32

	mu       sync.Mutex
	probeOKs int
}

// Mode returns the current state.
func (c *Controller) Mode() Mode { return Mode(c.mode.Load()) }

// transition moves the machine to `to` if the edge is legal, firing
// onTransition. Returns whether a change happened.
func (c *Controller) transition(to Mode, reason string) bool {
	c.mu.Lock()
	from := c.Mode()
	// A durability fault preempts every other state; the way back is
	// read-only → recovering → healthy, one probe-verified step at a time.
	legal := from != to && (to == ModeReadOnly ||
		from == ModeReadOnly && to == ModeRecovering ||
		from == ModeRecovering && to == ModeHealthy)
	if !legal {
		c.mu.Unlock()
		return false
	}
	c.mode.Store(int32(to))
	c.probeOKs = 0
	c.mu.Unlock()
	if c.onTransition != nil {
		c.onTransition(from, to, reason)
	}
	return true
}

// ReportDurabilityError flips the server read-only: the WAL refused a write
// or fsync, so no mutation can be made durable. Idempotent while already
// read-only.
func (c *Controller) ReportDurabilityError(err error) {
	reason := "durability fault"
	if err != nil {
		reason = "durability fault: " + err.Error()
	}
	c.transition(ModeReadOnly, reason)
}

// Run drives recovery probing until ctx is done. Start it once, in its own
// goroutine.
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.step(ctx)
		}
	}
}

// step is one probe tick, factored out of Run for tests.
func (c *Controller) step(ctx context.Context) {
	mode := c.Mode()
	if c.probe == nil || mode == ModeHealthy {
		return
	}
	pctx, cancel := context.WithTimeout(ctx, probeInterval)
	err := c.probe(pctx)
	cancel()
	switch {
	case mode == ModeReadOnly && err == nil:
		c.transition(ModeRecovering, "disk probe succeeded")
	case mode == ModeRecovering && err != nil:
		c.transition(ModeReadOnly, "disk probe failed during recovery: "+err.Error())
	case mode == ModeRecovering:
		c.mu.Lock()
		c.probeOKs++
		done := c.probeOKs >= recoverAfter
		c.mu.Unlock()
		if done {
			c.transition(ModeHealthy, "disk probes stable")
		}
	}
}
