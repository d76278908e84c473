package overload

import (
	"context"
	"time"

	"crowdwifi/internal/obs"
)

// Family is a shedding priority class of endpoints. Lower values are
// protected longer.
type Family int

const (
	// FamilyLookup is the roadside query path (/v1/lookup) — the paper's
	// raison d'être — protected longest under every degraded mode.
	FamilyLookup Family = iota
	// FamilyControl is task/pattern/aggregation management: shed after
	// uploads, before lookups.
	FamilyControl
	// FamilyUpload is vehicle report/label/pattern ingest: shed first,
	// because vehicles park rejected batches in a durable outbox and retry.
	FamilyUpload

	numFamilies = 3
)

// String returns the metric spelling of the family.
func (f Family) String() string {
	switch f {
	case FamilyLookup:
		return "lookup"
	case FamilyControl:
		return "control"
	case FamilyUpload:
		return "upload"
	default:
		return "unknown"
	}
}

// Options configure an Admission controller.
type Options struct {
	// Controller tunes the degraded-mode state machine.
	Controller ControllerOptions
	// Lookup, Control, Upload tune the per-family limiters. Zero values take
	// family-appropriate defaults (lookups get the deepest floor).
	Lookup, Control, Upload LimiterOptions
	// Registry receives the overload metric series; nil disables metrics.
	Registry *obs.Registry
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

	release func(rtt time.Duration, success bool)
}

// Release returns the slot, feeding the measured latency and outcome back
// into the family's limit. A no-op on a rejected Decision.
func (d Decision) Release(rtt time.Duration, success bool) {
	if d.release != nil {
		d.release(rtt, success)
	}
}

// Admission is the server's front door under load: per-family adaptive
// limits composed with the degraded-mode state machine.
type Admission struct {
	ctrl    *Controller
	lims    [numFamilies]*Limiter
	metrics *admissionMetrics
}

// New builds an Admission controller and registers its metrics.
func New(opts Options) *Admission {
	a := &Admission{}

	m := newAdmissionMetrics(opts.Registry)
	a.metrics = m
	userTransition := opts.Controller.OnTransition
	opts.Controller.OnTransition = func(from, to Mode, reason string) {
		m.observeTransition(from, to)
		if userTransition != nil {
			userTransition(from, to, reason)
		}
	}
	a.ctrl = NewController(opts.Controller)
	m.setMode(ModeHealthy)

	// Family defaults: lookups keep a deep floor so they are last to feel
	// pressure; uploads start widest because they dominate offered load.
	lookup := opts.Lookup
	if lookup.Min <= 0 {
		lookup.Min = 16
	}
	if lookup.Initial <= 0 {
		lookup.Initial = 128
	}
	control := opts.Control
	if control.Initial <= 0 {
		control.Initial = 16
	}
	if control.Max <= 0 {
		control.Max = 64
	}
	upload := opts.Upload
	if upload.Initial <= 0 {
		upload.Initial = 128
	}
	a.lims[FamilyLookup] = NewLimiter(lookup)
	a.lims[FamilyControl] = NewLimiter(control)
	a.lims[FamilyUpload] = NewLimiter(upload)

	if opts.Registry != nil {
		opts.Registry.OnScrape(a.refreshGauges)
	}
	return a
}

// Controller exposes the state machine (for durability error reporting, the
// probe loop, and status surfaces).
func (a *Admission) Controller() *Controller { return a.ctrl }

// Mode returns the current degradation mode.
func (a *Admission) Mode() Mode { return a.ctrl.Mode() }

// LimiterSnapshot returns the named family's limiter state.
func (a *Admission) LimiterSnapshot(f Family) LimiterSnapshot {
	return a.lims[f].Snapshot()
}

// RetryHint returns the family's current Retry-After estimate without
// admitting anything — for sheds decided outside the admission layer.
func (a *Admission) RetryHint(f Family) time.Duration {
	return a.lims[f].RetryHint()
}

// Admit decides one request. mutation marks requests that must write
// durably (rejected outright while read-only). The decision is recorded in
// the controller's shed window, so sustained shedding flips the server
// overloaded and a drained queue flips it back.
func (a *Admission) Admit(ctx context.Context, f Family, mutation bool) Decision {
	mode := a.ctrl.Mode()

	// Read-only: mutations cannot be made durable, so acking them would be
	// a lie. Reads still flow (through their limiter) from fused state.
	if mutation && mode == ModeReadOnly {
		a.metrics.observeShed(f, "read_only")
		// Deliberately NOT recorded as a shed-window decision: read-only is
		// a disk condition, not a load condition, and must not trip the
		// overloaded detector.
		return Decision{ReadOnly: true, RetryAfter: a.ctrl.RecoveryHint()}
	}

	lim := a.lims[f]
	var (
		release func(time.Duration, bool)
		hint    time.Duration
		ok      bool
	)
	if mode == ModeOverloaded && f == FamilyUpload {
		// Shed-first class while overloaded: no queueing, drain the backlog.
		release, hint, ok = lim.TryAcquire()
	} else {
		release, hint, ok = lim.Acquire(ctx)
	}

	a.ctrl.NoteDecision(!ok)
	if !ok {
		a.metrics.observeShed(f, "limit")
		return Decision{RetryAfter: hint}
	}
	a.metrics.observeAdmit(f)
	return Decision{OK: true, release: release}
}

func (a *Admission) refreshGauges() {
	a.metrics.setMode(a.ctrl.Mode())
	for f := Family(0); f < numFamilies; f++ {
		a.metrics.setLimit(f, a.lims[f].Snapshot())
	}
}

// admissionMetrics exposes the overload subsystem on /metrics. Nil-safe
// throughout (a nil registry yields nil series; obs no-ops on nil).
type admissionMetrics struct {
	mode *obs.Gauge
	reg  *obs.Registry // source for labeled transition counters

	limit    [numFamilies]*obs.Gauge
	admitted [numFamilies]*obs.Counter
	shedLim  [numFamilies]*obs.Counter
	shedRO   [numFamilies]*obs.Counter
}

func newAdmissionMetrics(reg *obs.Registry) *admissionMetrics {
	m := &admissionMetrics{reg: reg}
	m.mode = reg.Gauge("crowdwifi_overload_mode",
		"Degradation mode: 0 healthy, 1 overloaded, 2 read-only, 3 recovering.")
	for f := Family(0); f < numFamilies; f++ {
		lbl := obs.L("family", f.String())
		m.limit[f] = reg.Gauge("crowdwifi_admission_limit",
			"Current adaptive concurrency limit per endpoint family.", lbl)
		m.admitted[f] = reg.Counter("crowdwifi_admission_admitted_total",
			"Requests granted a concurrency slot.", lbl)
		m.shedLim[f] = reg.Counter("crowdwifi_admission_shed_total",
			"Requests shed by the admission controller.", lbl, obs.L("reason", "limit"))
		m.shedRO[f] = reg.Counter("crowdwifi_admission_shed_total",
			"Requests shed by the admission controller.", lbl, obs.L("reason", "read_only"))
	}
	return m
}

func (m *admissionMetrics) setMode(mode Mode) {
	m.mode.Set(float64(mode))
}

func (m *admissionMetrics) observeTransition(from, to Mode) {
	m.mode.Set(float64(to))
	m.reg.Counter("crowdwifi_overload_transitions_total",
		"Degradation state-machine transitions.",
		obs.L("from", from.String()), obs.L("to", to.String())).Inc()
}

func (m *admissionMetrics) observeAdmit(f Family) {
	m.admitted[f].Inc()
}

func (m *admissionMetrics) observeShed(f Family, reason string) {
	if reason == "read_only" {
		m.shedRO[f].Inc()
		return
	}
	m.shedLim[f].Inc()
}

func (m *admissionMetrics) setLimit(f Family, s LimiterSnapshot) {
	m.limit[f].Set(float64(s.Limit))
}
