package overload

import (
	"context"
	"sync/atomic"
	"time"

	"crowdwifi/internal/obs"
)

// Family is a class of endpoints with its own concurrency cap.
type Family int

const (
	// FamilyLookup is the roadside query path (/v1/lookup) — the paper's
	// raison d'être — with its own cap, so no ingest flood can take its
	// slots.
	FamilyLookup Family = iota
	// FamilyControl is task/pattern/aggregation management.
	FamilyControl
	// FamilyUpload is vehicle report/label/pattern ingest, the cheapest to
	// shed: vehicles park rejected batches in a durable outbox and retry.
	FamilyUpload

	numFamilies = 3
)

// String returns the metric spelling of the family.
func (f Family) String() string { return [numFamilies]string{"lookup", "control", "upload"}[f] }

// familyCaps are the per-family concurrency caps. Uploads and lookups
// dominate offered load; control traffic is a trickle and gets an eighth.
var familyCaps = [numFamilies]int{FamilyLookup: 128, FamilyControl: 16, FamilyUpload: 128}

const (
	// queueDeadline is the sojourn bound: a request may wait at most this
	// long for a slot before it is shed.
	queueDeadline = 100 * time.Millisecond
	// queueDepth bounds how many requests of one family may wait at once.
	queueDepth = 256
	// ShedRetryAfter is the Retry-After of a request shed because its family
	// was full: come back after one more queue deadline. The router relays
	// it without retrying; the vehicle waits it out, jittered up to 1.5× and
	// doubled on every repeated shed, so a wave that keeps a family full
	// backs off geometrically without a server estimate.
	ShedRetryAfter = queueDeadline
)

// retryAfter is the one Retry-After rule for admission sheds: a full family
// answers the constant, a read-only server the soonest the probe could walk
// it back to healthy.
func retryAfter(readOnly bool) time.Duration {
	if readOnly {
		return (recoverAfter + 1) * probeInterval
	}
	return ShedRetryAfter
}

// Options configure an Admission controller. The zero value is usable.
type Options struct {
	// Max caps every family's concurrency; ≤ 0 keeps the built-in caps,
	// which is what both binaries run. It stays an option because the shed
	// tests force a shed through it without holding 129 requests open.
	Max int
	// Registry receives the overload metric series; nil records none.
	Registry *obs.Registry
	// Probe checks whether the disk accepts durable writes again (an append
	// plus fsync of a throwaway record). Required for read-only recovery;
	// nil leaves the server read-only until restart.
	Probe func(ctx context.Context) error
	// OnTransition observes every durability state change (metrics, traces,
	// logs).
	OnTransition func(from, to Mode, reason string)
}

// Decision is the outcome of one admission request.
type Decision struct {
	// OK means the request holds a slot; call Release exactly once.
	OK bool
	// ReadOnly means the request was rejected because the server cannot
	// write durably, not because of load — the client should surface this
	// distinctly (it is not the client's fault and not capacity-related).
	ReadOnly bool
	// RetryAfter is the backoff hint for a rejected request.
	RetryAfter time.Duration

	fam *family
}

// Release returns the slot. A no-op on a rejected Decision. The arguments
// are unused: the signature is frozen by bench/trace.go until ROADMAP 1(c).
func (d Decision) Release(time.Duration, bool) {
	if d.fam != nil {
		<-d.fam.slots
	}
}

// family is one endpoint family's bound: a buffered channel whose capacity
// is the cap. A send takes a slot and a receive frees one; a request that
// finds the family full blocks in the send, and the runtime hands a freed
// slot to the longest-blocked sender, so the wait is a FIFO queue.
type family struct {
	slots   chan struct{}
	waiting atomic.Int32 // requests blocked in the queue right now
}

// acquire takes a slot, waiting up to queueDeadline behind at most
// queueDepth others. ctx cancellation counts as a shed (the caller is
// leaving).
func (f *family) acquire(ctx context.Context) bool {
	select {
	case f.slots <- struct{}{}:
		return true
	default:
	}
	if f.waiting.Add(1) > queueDepth {
		f.waiting.Add(-1)
		return false
	}
	defer f.waiting.Add(-1)
	timer := time.NewTimer(queueDeadline)
	defer timer.Stop()
	select {
	case f.slots <- struct{}{}:
		return true
	case <-ctx.Done():
	case <-timer.C:
	}
	return false
}

// Admission is the server's front door: a fixed bound per endpoint family
// composed with the durability state machine.
type Admission struct {
	ctrl    *Controller
	fams    [numFamilies]family
	metrics admissionMetrics
}

// New builds an Admission controller and registers its metrics.
func New(opts Options) *Admission {
	a := &Admission{metrics: newAdmissionMetrics(opts.Registry)}
	a.ctrl = &Controller{
		probe: opts.Probe,
		onTransition: func(from, to Mode, reason string) {
			a.metrics.observeTransition(from, to)
			if opts.OnTransition != nil {
				opts.OnTransition(from, to, reason)
			}
		},
	}
	a.metrics.mode.Set(float64(ModeHealthy))
	for f := range a.fams {
		n := familyCaps[f]
		if opts.Max > 0 {
			n = min(n, opts.Max)
		}
		a.fams[f].slots = make(chan struct{}, n)
	}
	return a
}

// Controller exposes the state machine (for durability error reporting, the
// probe loop, and status surfaces).
func (a *Admission) Controller() *Controller { return a.ctrl }

// Mode returns the current durability mode.
func (a *Admission) Mode() Mode { return a.ctrl.Mode() }

// Admit decides one request. mutation marks requests that must write
// durably (rejected outright while read-only).
func (a *Admission) Admit(ctx context.Context, f Family, mutation bool) Decision {
	// Read-only: mutations cannot be made durable, so acking them would be
	// a lie. Reads still flow (through their cap) from fused state.
	if mutation && a.ctrl.Mode() == ModeReadOnly {
		a.metrics.shedReadOnly[f].Inc()
		return Decision{ReadOnly: true, RetryAfter: retryAfter(true)}
	}
	fam := &a.fams[f]
	if !fam.acquire(ctx) {
		a.metrics.shedLimit[f].Inc()
		return Decision{RetryAfter: retryAfter(false)}
	}
	a.metrics.admitted[f].Inc()
	return Decision{OK: true, fam: fam}
}

// admissionMetrics exposes the overload subsystem on /metrics. Without a
// registry every series is a nil no-op.
type admissionMetrics struct {
	mode *obs.Gauge
	reg  *obs.Registry // source for labeled transition counters

	admitted     [numFamilies]*obs.Counter
	shedLimit    [numFamilies]*obs.Counter
	shedReadOnly [numFamilies]*obs.Counter
}

func newAdmissionMetrics(reg *obs.Registry) admissionMetrics {
	m := admissionMetrics{reg: reg}
	m.mode = reg.Gauge("crowdwifi_overload_mode",
		"Durability mode: 0 healthy, 2 read-only, 3 recovering.")
	for f := Family(0); f < numFamilies; f++ {
		lbl := obs.L("family", f.String())
		m.admitted[f] = reg.Counter("crowdwifi_admission_admitted_total",
			"Requests granted a concurrency slot.", lbl)
		m.shedLimit[f] = reg.Counter("crowdwifi_admission_shed_total",
			"Requests shed by the admission controller.", lbl, obs.L("reason", "limit"))
		m.shedReadOnly[f] = reg.Counter("crowdwifi_admission_shed_total",
			"Requests shed by the admission controller.", lbl, obs.L("reason", "read_only"))
	}
	return m
}

func (m *admissionMetrics) observeTransition(from, to Mode) {
	m.mode.Set(float64(to))
	m.reg.Counter("crowdwifi_overload_transitions_total",
		"Durability state-machine transitions.",
		obs.L("from", from.String()), obs.L("to", to.String())).Inc()
}
