// Package load drives a synthetic crowd-vehicle fleet against a running
// crowd-server and measures what the fleet observes: per-endpoint latency
// quantiles, sustained throughput, and the resilience machinery's behaviour
// (retries, sheds, outbox parking) under load.
//
// The generator is closed-loop: each simulated vehicle is one goroutine that
// issues a request, waits for the response, optionally thinks, and repeats —
// so offered load adapts to server latency instead of piling up unbounded
// in-flight requests the way an open-loop generator would. A run has three
// phases:
//
//	warmup  — traffic flows but nothing is recorded, so connection setup,
//	          server JIT-ish warmup, and cold caches stay out of the numbers
//	measure — the measurement window; latency histograms and rate deltas
//	          for the run report come exclusively from this phase
//	drain   — vehicles stop issuing new work and every outbox is flushed,
//	          so the zero-lost-reports accounting can close the books
//
// Vehicles upload realistic payloads: report archetypes are precomputed from
// internal/sim drive-by RSS collection over the paper's UCI scenario, so the
// server's aggregation pipeline sees plausible AP geometry rather than
// random bytes.
package load

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/client"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
)

// Endpoint labels used in metrics and the run report.
const (
	EndpointUpload = "upload"
	EndpointLookup = "lookup"
)

// Phase is the generator's lifecycle position.
type Phase int32

// Run phases, in order.
const (
	PhaseIdle Phase = iota
	PhaseWarmup
	PhaseMeasure
	PhaseDrain
	PhaseDone
)

// String names the phase for logs and /debug/load.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseWarmup:
		return "warmup"
	case PhaseMeasure:
		return "measure"
	case PhaseDrain:
		return "drain"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", int32(p))
	}
}

// Config parameterizes one load run.
type Config struct {
	// ServerURL is the crowd-server base URL, e.g. "http://127.0.0.1:8700".
	// When the fleet drives a cluster, point this at the router.
	ServerURL string
	// ScrapeURLs are the debug/metrics endpoints sampled for the
	// server-side section of the report. Empty defaults to [ServerURL].
	// Against a cluster, list every shard (and optionally the router):
	// counters are summed across targets, so RED deltas cover the whole
	// fleet of shards instead of one.
	ScrapeURLs []string
	// Vehicles is the fleet size: one goroutine per simulated vehicle
	// (default 100).
	Vehicles int
	// Warmup, Measure, Drain are the phase durations (defaults 3s, 15s,
	// 10s). Drain bounds how long outbox flushing may take.
	Warmup  time.Duration
	Measure time.Duration
	Drain   time.Duration
	// Think is the mean pause between a vehicle's iterations; the actual
	// pause is uniform in [0.5·Think, 1.5·Think). Zero means no pause
	// (pure closed loop).
	Think time.Duration
	// LookupEvery issues one user-vehicle lookup after every N uploads
	// (default 10; negative disables lookups).
	LookupEvery int
	// Archetypes is how many distinct report payloads to precompute from
	// simulated drives (default 16, capped at Vehicles).
	Archetypes int
	// Seed feeds the deterministic RNG for payload synthesis, think-time
	// jitter, and lookup areas (default 1).
	Seed uint64
	// Codec selects the upload/lookup wire format: client.CodecJSON
	// (default, "") or client.CodecBinary for the length-prefixed frame
	// codec.
	Codec string
	// BatchSize, when > 1, switches vehicles to batched delivery: each
	// iteration still produces one report (so offered load matches a
	// single-upload run), but reports accumulate locally and ship as one
	// POST /v1/reports/batch every BatchSize iterations (frame codec on the
	// wire regardless of Codec). Outbox drains batch the same way.
	BatchSize int
	// RetryAttempts is the per-request attempt budget including the first
	// try (default 4).
	RetryAttempts int
	// OutboxCap bounds each vehicle's store-and-forward outbox (default
	// 256 entries).
	OutboxCap int
	// Registry receives the generator's own metrics; nil creates a private
	// one.
	Registry *obs.Registry
	// Logger receives progress lines; nil discards them.
	Logger *obs.Logger
	// LogEvery is the period of the one-line progress log (default 5s;
	// negative disables it).
	LogEvery time.Duration
	// HTTP overrides the transport; nil builds a retrying doer around
	// http.DefaultClient. Tests inject chaos or in-process handlers here.
	HTTP client.HTTPDoer
}

func (c Config) withDefaults() Config {
	if c.Vehicles <= 0 {
		c.Vehicles = 100
	}
	if c.Warmup <= 0 {
		c.Warmup = 3 * time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 15 * time.Second
	}
	if c.Drain <= 0 {
		c.Drain = 10 * time.Second
	}
	if c.LookupEvery == 0 {
		c.LookupEvery = 10
	}
	if c.Archetypes <= 0 {
		c.Archetypes = 16
	}
	if c.Archetypes > c.Vehicles {
		c.Archetypes = c.Vehicles
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 4
	}
	if c.OutboxCap <= 0 {
		c.OutboxCap = 256
	}
	if len(c.ScrapeURLs) == 0 {
		c.ScrapeURLs = []string{c.ServerURL}
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(io.Discard, obs.LevelInfo)
	}
	if c.LogEvery == 0 {
		c.LogEvery = 5 * time.Second
	}
	return c
}

// track holds one endpoint's instruments. The window feeds live progress
// (/debug/load and the periodic log line); the measured histogram is only
// observed during the measure phase, so its lifetime quantiles ARE the
// measurement-window quantiles the run report publishes.
type track struct {
	window   *obs.WindowedHistogram
	measured *obs.Histogram
	ok       *obs.Counter
	queued   *obs.Counter
	errs     *obs.Counter
}

// vehicle is one simulated fleet member: a crowd-vehicle for uploads, a
// user-vehicle for lookups, and a private RNG so the drive loop never
// contends on shared random state.
type vehicle struct {
	cv   *client.CrowdVehicle
	user *client.UserVehicle
	rep  api.Report
	rnd  *rng.RNG
	area geo.Rect
	// pending accumulates this vehicle's produced-but-unshipped reports in
	// batch mode; it flushes every BatchSize iterations and once on stop.
	pending []api.Report
}

// Runner executes one load run. Build it with NewRunner, then call Run once.
type Runner struct {
	cfg Config
	reg *obs.Registry
	log *obs.Logger

	clientMetrics *client.Metrics
	doer          client.HTTPDoer

	phase      atomic.Int32
	phaseStart atomic.Int64 // unix nanos
	runStart   time.Time
	measuring  atomic.Bool
	stopping   atomic.Bool

	vehicles []*vehicle
	tracks   map[string]*track

	// Per-shard upload latency, keyed by the X-Crowdwifi-Shard header the
	// router stamps on proxied answers. Shards appear as traffic reveals
	// them; against a single server the map stays empty and the report's
	// shard section is omitted.
	shardMu     sync.Mutex
	shardTracks map[string]*shardTrack

	drainDelivered atomic.Uint64

	// shed-then-succeed: logical requests that hit at least one 503 but
	// eventually landed. The histogram is the client-side cost of being shed
	// — exactly the latency the server's Retry-After hint is trying to bound.
	shedThenOK        atomic.Uint64
	shedRetryWindow   *obs.WindowedHistogram
	shedRetryMeasured *obs.Histogram

	phaseGauge *obs.Gauge
}

// shedKey carries the per-logical-request shed flag through the retry loop's
// context, tying the attempt-level watcher (under the retrying doer) to the
// request-level observer (over it).
type shedKey struct{}

type shedFlag struct{ seen atomic.Bool }

// attemptWatcher sits UNDER the retrying doer: it sees every individual
// attempt, so a 503 that a later retry recovers from still gets flagged.
type attemptWatcher struct{ next client.HTTPDoer }

func (a attemptWatcher) Do(req *http.Request) (*http.Response, error) {
	resp, err := a.next.Do(req)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
		if f, ok := req.Context().Value(shedKey{}).(*shedFlag); ok {
			f.seen.Store(true)
		}
	}
	return resp, err
}

// shedObserver sits OVER the retrying doer: it plants the flag, times the
// whole logical request (first attempt through final response, backoff
// included), and records the shed-then-succeed latency when the flag fired
// but the request ultimately succeeded. The same vantage point sees the
// router's X-Crowdwifi-Shard header on the final response, so it also feeds
// the per-shard latency breakdown.
type shedObserver struct {
	next client.HTTPDoer
	r    *Runner
}

func (s shedObserver) Do(req *http.Request) (*http.Response, error) {
	f := &shedFlag{}
	req = req.WithContext(context.WithValue(req.Context(), shedKey{}, f))
	start := time.Now()
	resp, err := s.next.Do(req)
	if err == nil {
		d := time.Since(start)
		if f.seen.Load() && resp.StatusCode < 300 {
			s.r.recordShedRetry(d)
		}
		if shard := resp.Header.Get(api.ShardHeader); shard != "" {
			s.r.recordShard(shard, d)
		}
	}
	return resp, err
}

// recordShedRetry feeds one shed-then-succeed completion into both latency
// views and the whole-run count.
func (r *Runner) recordShedRetry(d time.Duration) {
	r.shedThenOK.Add(1)
	sec := d.Seconds()
	r.shedRetryWindow.Observe(sec)
	if r.measuring.Load() {
		r.shedRetryMeasured.Observe(sec)
	}
}

// shardTrack mirrors track for one shard's slice of router-proxied traffic:
// the window feeds live views, the measured histogram feeds the report.
type shardTrack struct {
	window   *obs.WindowedHistogram
	measured *obs.Histogram
}

// recordShard feeds one router-proxied completion into the per-shard latency
// views, creating the shard's instruments on first sight.
func (r *Runner) recordShard(shard string, d time.Duration) {
	r.shardMu.Lock()
	t, ok := r.shardTracks[shard]
	if !ok {
		t = &shardTrack{
			window: r.reg.WindowedHistogram("crowdwifi_load_shard_duration_seconds",
				"Client-observed latency of router-proxied requests by owning shard (rolling window).",
				nil, obs.DefaultWindow, obs.DefaultWindowSlots, obs.L("shard", shard)),
			measured: r.reg.Histogram("crowdwifi_load_shard_measured_duration_seconds",
				"Router-proxied request latency by owning shard, measure phase only (source of the run report's shard breakdown).",
				nil, obs.L("shard", shard)),
		}
		r.shardTracks[shard] = t
	}
	r.shardMu.Unlock()
	sec := d.Seconds()
	t.window.Observe(sec)
	if r.measuring.Load() {
		t.measured.Observe(sec)
	}
}

// NewRunner precomputes payload archetypes and builds the fleet. It does not
// issue any traffic; the returned runner is inert until Run.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if cfg.ServerURL == "" {
		return nil, errors.New("load: Config.ServerURL is required")
	}
	r := &Runner{
		cfg:           cfg,
		reg:           cfg.Registry,
		log:           cfg.Logger,
		clientMetrics: client.NewMetrics(cfg.Registry),
		tracks:        map[string]*track{},
		shardTracks:   map[string]*shardTrack{},
	}
	r.doer = cfg.HTTP
	if r.doer == nil {
		// No circuit breaker on purpose: the generator must keep offering
		// load while the server sheds, or the run would measure the
		// breaker instead of the server. The shed observer/watcher pair
		// brackets the retry loop so shed-then-succeed latency covers the
		// full first-attempt-to-final-ack span; an injected cfg.HTTP owns
		// its own layering and skips this instrumentation.
		//
		// The whole fleet funnels through this one client, so the transport
		// needs a fleet-sized idle pool: DefaultClient keeps 2 idle conns
		// per host, which at thousands of vehicles means a TCP handshake
		// per request — the run would measure connection churn, not the
		// server. A real fleet holds one connection per vehicle.
		transport := http.DefaultTransport.(*http.Transport).Clone()
		transport.MaxIdleConns = 0 // unlimited; one target host anyway
		transport.MaxIdleConnsPerHost = cfg.Vehicles + 64
		fleet := &http.Client{Transport: transport}
		// The retry budget is likewise per-Doer, sized for one client. Left
		// at its default the whole fleet shares one 10-token bucket and a
		// single shed wave exhausts it instantly, parking uploads a real
		// fleet of independent vehicles would have retried. Scale the burst
		// by fleet size; the per-request ratio already scales on its own.
		r.doer = shedObserver{
			r: r,
			next: retry.NewDoer(attemptWatcher{next: fleet},
				retry.Policy{MaxAttempts: cfg.RetryAttempts},
				retry.WithMetrics(retry.NewMetrics(cfg.Registry)),
				retry.WithBudget(retry.BudgetConfig{Burst: 10 * float64(cfg.Vehicles)})),
		}
	}
	for _, ep := range []string{EndpointUpload, EndpointLookup} {
		r.tracks[ep] = &track{
			window: r.reg.WindowedHistogram("crowdwifi_load_request_duration_seconds",
				"Client-observed request latency by endpoint (rolling window feeds /debug/load).",
				nil, obs.DefaultWindow, obs.DefaultWindowSlots, obs.L("endpoint", ep)),
			measured: r.reg.Histogram("crowdwifi_load_measured_duration_seconds",
				"Client-observed request latency by endpoint, measure phase only (source of the run report's quantiles).",
				nil, obs.L("endpoint", ep)),
			ok:     r.outcomeCounter(ep, "ok"),
			queued: r.outcomeCounter(ep, "queued"),
			errs:   r.outcomeCounter(ep, "error"),
		}
	}
	r.shedRetryWindow = r.reg.WindowedHistogram("crowdwifi_load_shed_retry_duration_seconds",
		"First attempt to final ack for uploads shed (503) at least once then delivered (rolling window).",
		nil, obs.DefaultWindow, obs.DefaultWindowSlots)
	r.shedRetryMeasured = r.reg.Histogram("crowdwifi_load_shed_retry_measured_duration_seconds",
		"Shed-then-succeed latency, measure phase only (source of the run report's quantiles).",
		nil)
	r.phaseGauge = r.reg.Gauge("crowdwifi_load_phase",
		"Generator phase: 0 idle, 1 warmup, 2 measure, 3 drain, 4 done.")
	r.reg.Gauge("crowdwifi_load_vehicles", "Simulated fleet size.").Set(float64(cfg.Vehicles))

	payloads, err := buildArchetypes(cfg.Seed, cfg.Archetypes)
	if err != nil {
		return nil, err
	}
	area := sim.UCI().Area
	r.vehicles = make([]*vehicle, cfg.Vehicles)
	for i := range r.vehicles {
		rep := payloads[i%len(payloads)]
		rep.Vehicle = fmt.Sprintf("load-%05d", i)
		r.vehicles[i] = &vehicle{
			cv: &client.CrowdVehicle{
				ID:        rep.Vehicle,
				BaseURL:   cfg.ServerURL,
				HTTP:      r.doer,
				Metrics:   r.clientMetrics,
				Outbox:    client.NewOutbox(cfg.OutboxCap),
				Codec:     cfg.Codec,
				BatchSize: cfg.BatchSize,
			},
			user: &client.UserVehicle{BaseURL: cfg.ServerURL, HTTP: r.doer, Metrics: r.clientMetrics, Codec: cfg.Codec},
			rep:  rep,
			rnd:  rng.New(cfg.Seed).Split(0xdead0000 + uint64(i)),
			area: area,
		}
	}
	return r, nil
}

func (r *Runner) outcomeCounter(ep, outcome string) *obs.Counter {
	return r.reg.Counter("crowdwifi_load_requests_total",
		"Fleet requests issued, by endpoint and outcome (ok, queued to outbox, error).",
		obs.L("endpoint", ep), obs.L("outcome", outcome))
}

// buildArchetypes synthesizes n distinct report payloads by replaying the
// paper's UCI collection drive with different noise seeds and summarizing
// each drive's source-labelled RSS readings into per-AP centroids. Each
// archetype lands on its own road segment so the server's per-segment fusion
// has real work to do.
func buildArchetypes(seed uint64, n int) ([]api.Report, error) {
	scen := sim.UCI()
	out := make([]api.Report, 0, n)
	for i := 0; i < n; i++ {
		ms, err := scen.Drive(sim.DriveConfig{
			Trajectory:  sim.UCIDrive(),
			NumSamples:  64,
			SNR:         30,
			MyopicScale: 10,
		}, rng.New(seed).Split(uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("load: drive synthesis: %w", err)
		}
		type acc struct {
			x, y float64
			n    int
		}
		bySource := map[int]*acc{}
		for _, m := range ms {
			a, ok := bySource[m.Source]
			if !ok {
				a = &acc{}
				bySource[m.Source] = a
			}
			a.x += m.Pos.X
			a.y += m.Pos.Y
			a.n++
		}
		srcs := make([]int, 0, len(bySource))
		for s := range bySource {
			srcs = append(srcs, s)
		}
		sort.Ints(srcs)
		aps := make([]api.APReport, 0, len(srcs))
		for _, s := range srcs {
			a := bySource[s]
			aps = append(aps, api.APReport{
				X:      a.x / float64(a.n),
				Y:      a.y / float64(a.n),
				Credit: float64(a.n),
			})
		}
		out = append(out, api.Report{
			Segment: fmt.Sprintf("load-seg-%02d", i),
			APs:     aps,
		})
	}
	return out, nil
}

func (r *Runner) setPhase(p Phase) {
	r.phase.Store(int32(p))
	r.phaseStart.Store(time.Now().UnixNano())
	r.phaseGauge.Set(float64(p))
}

// CurrentPhase reports the generator's phase; safe from any goroutine.
func (r *Runner) CurrentPhase() Phase { return Phase(r.phase.Load()) }

// record classifies one completed request and feeds both latency views.
func (r *Runner) record(ep string, d time.Duration, err error) {
	t := r.tracks[ep]
	sec := d.Seconds()
	t.window.Observe(sec)
	if r.measuring.Load() {
		t.measured.Observe(sec)
	}
	switch {
	case err == nil:
		t.ok.Inc()
	case errors.Is(err, client.ErrQueued):
		t.queued.Inc()
	default:
		t.errs.Inc()
	}
}

// recordBatch feeds one completed batch upload into the endpoint track:
// latency once per round-trip, outcomes once per report, so uploads/s stays
// a reports-delivered rate and batch runs compare against single-upload
// runs on the same axis.
func (r *Runner) recordBatch(ep string, d time.Duration, out client.BatchOutcome) {
	t := r.tracks[ep]
	sec := d.Seconds()
	t.window.Observe(sec)
	if r.measuring.Load() {
		t.measured.Observe(sec)
	}
	t.ok.Add(uint64(out.Acked))
	t.queued.Add(uint64(out.Queued))
	t.errs.Add(uint64(out.Failed))
}

// drive is one vehicle's closed loop: upload, occasionally look up, think,
// repeat until the context ends.
func (r *Runner) drive(ctx context.Context, v *vehicle) {
	for i := 1; ; i++ {
		if ctx.Err() != nil || r.stopping.Load() {
			// A stopping vehicle ships what it already produced so batch-mode
			// accounting closes its books the same way single mode does.
			r.flushBatch(ctx, v)
			return
		}
		start := time.Now()
		if r.cfg.BatchSize > 1 {
			// One report produced per iteration — identical offered load to a
			// single-upload run — shipped every BatchSize iterations in one
			// round-trip.
			v.pending = append(v.pending, v.rep)
			if len(v.pending) >= r.cfg.BatchSize {
				r.flushBatch(ctx, v)
				if ctx.Err() != nil {
					return
				}
			}
		} else {
			err := v.cv.UploadReport(ctx, v.rep)
			if ctx.Err() != nil && err != nil {
				// Cancelled mid-flight at a phase boundary: the upload parked
				// itself in the outbox and the drain phase will settle it —
				// recording it here would count shutdown noise as traffic.
				return
			}
			r.record(EndpointUpload, time.Since(start), err)
		}
		if r.cfg.LookupEvery > 0 && i%r.cfg.LookupEvery == 0 {
			area := v.lookupArea()
			start = time.Now()
			_, lerr := v.user.Lookup(ctx, area)
			if ctx.Err() != nil && lerr != nil {
				return
			}
			r.record(EndpointLookup, time.Since(start), lerr)
		}
		if r.cfg.Think > 0 {
			pause := time.Duration((0.5 + v.rnd.Float64()) * float64(r.cfg.Think))
			if sleepCtx(ctx, pause) != nil {
				return
			}
		}
	}
}

// flushBatch ships a vehicle's accumulated reports as one batch round-trip
// and records the outcome. No-op outside batch mode or with nothing pending.
func (r *Runner) flushBatch(ctx context.Context, v *vehicle) {
	if r.cfg.BatchSize <= 1 || len(v.pending) == 0 || ctx.Err() != nil {
		return
	}
	start := time.Now()
	out, err := v.cv.UploadReportBatch(ctx, v.pending)
	v.pending = v.pending[:0]
	if ctx.Err() != nil && err != nil {
		return
	}
	r.recordBatch(EndpointUpload, time.Since(start), out)
}

// lookupArea picks a random query window inside the scenario map, the way a
// user-vehicle asks "what APs are near me".
func (v *vehicle) lookupArea() geo.Rect {
	cx := v.area.Min.X + v.rnd.Float64()*v.area.Width()
	cy := v.area.Min.Y + v.rnd.Float64()*v.area.Height()
	half := 30 + v.rnd.Float64()*50
	return geo.NewRect(geo.Point{X: cx - half, Y: cy - half}, geo.Point{X: cx + half, Y: cy + half})
}

// Run executes warmup → measure → drain and returns the run report. The
// context cancels the whole run; phase durations come from the config.
func (r *Runner) Run(ctx context.Context) (*RunReport, error) {
	r.runStart = time.Now()
	serverStart := r.scrapeServer(ctx)

	driveCtx, stopDrive := context.WithCancel(ctx)
	defer stopDrive()
	var wg sync.WaitGroup
	for _, v := range r.vehicles {
		wg.Add(1)
		go func(v *vehicle) {
			defer wg.Done()
			r.drive(driveCtx, v)
		}(v)
	}
	stopLog := r.startProgressLog()
	defer stopLog()

	r.setPhase(PhaseWarmup)
	if err := sleepCtx(ctx, r.cfg.Warmup); err != nil {
		stopDrive()
		wg.Wait()
		return nil, err
	}

	serverBefore := r.scrapeServer(ctx)
	before := r.snapshot()
	r.setPhase(PhaseMeasure)
	r.measuring.Store(true)
	measureStart := time.Now()
	err := sleepCtx(ctx, r.cfg.Measure)
	r.measuring.Store(false)
	measured := time.Since(measureStart)
	after := r.snapshot()
	serverAfter := r.scrapeServer(ctx)
	if err != nil {
		stopDrive()
		wg.Wait()
		return nil, err
	}

	r.setPhase(PhaseDrain)
	// Graceful fleet stop: flag the vehicles to stop issuing and give
	// in-flight requests a bounded grace period to finish. Hard-cancelling
	// mid-flight leaves requests the server may complete after the client
	// gave up; their outbox replays can outlive the server's idempotency
	// window and double-apply, so the books only balance if the boundary is
	// clean. Stragglers still stuck after the grace (e.g. sleeping out a
	// long Retry-After) are cancelled and settle through the drain phase.
	r.stopping.Store(true)
	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	grace := r.cfg.Drain / 2
	select {
	case <-fleetDone:
	case <-time.After(grace):
		stopDrive()
		<-fleetDone
	}
	stopDrive()
	r.drainOutboxes(ctx)
	serverFinal := r.scrapeServer(ctx)
	sloStatus, sloOK := r.scrapeSLO(ctx)
	r.setPhase(PhaseDone)

	return r.buildReport(reportInputs{
		before: before, after: after,
		serverStart: serverStart, serverBefore: serverBefore,
		serverAfter: serverAfter, serverFinal: serverFinal,
		slo: sloStatus, sloOK: sloOK,
		measured: measured,
	}), nil
}

// drainOutboxes flushes every vehicle's parked uploads, bounded by the drain
// budget. DrainOutbox stops on the first transient failure, so each vehicle
// loops until its outbox empties or time runs out, pausing for the server's
// Retry-After hint when one came back with the rejection (a shedding server
// has measured its own drain rate; second-guessing it just feeds the backlog)
// and a short fixed backoff otherwise.
func (r *Runner) drainOutboxes(ctx context.Context) {
	dctx, cancel := context.WithTimeout(ctx, r.cfg.Drain)
	defer cancel()
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	for _, v := range r.vehicles {
		if v.cv.Outbox.Len() == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(v *vehicle) {
			defer wg.Done()
			defer func() { <-sem }()
			for dctx.Err() == nil && v.cv.Outbox.Len() > 0 {
				n, err := v.cv.DrainOutbox(dctx)
				r.drainDelivered.Add(uint64(n))
				if err == nil {
					return
				}
				pause := 200 * time.Millisecond
				if hint := client.RetryAfterHint(err); hint > pause {
					pause = hint
				}
				if sleepCtx(dctx, pause) != nil {
					return
				}
			}
		}(v)
	}
	wg.Wait()
}

// outboxTotals sums fleet outbox state: entries still parked, and entries
// evicted by capacity pressure (each one a lost report).
func (r *Runner) outboxTotals() (remaining int, evicted uint64) {
	for _, v := range r.vehicles {
		remaining += v.cv.Outbox.Len()
		evicted += v.cv.Outbox.Evicted()
	}
	return remaining, evicted
}

// sleepCtx sleeps d or returns the context's error if it ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// counterValue reads a counter registered elsewhere on the same registry
// (e.g. by retry.NewMetrics or client.NewMetrics) without duplicating its
// help text — the family's first registration fixed that.
func (r *Runner) counterValue(name string, labels ...obs.Label) uint64 {
	return r.reg.Counter(name, "", labels...).Value()
}
