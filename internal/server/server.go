// Package server implements the CrowdWiFi crowd-server (Section 5.5): an
// HTTP service holding the crowdsourced AP database, assigning AP-pattern
// mapping tasks to crowd-vehicles over a bipartite graph, collecting labels
// and online-CS reports, inferring per-vehicle reliability with iterative
// message passing, and serving reliability-weighted fused AP lookup results
// to user-vehicles.
//
// A server answers for itself on its debug surface: /metrics is its own
// registry, /debug/traces its own spans (a routed upload's router spans are
// on the router, under the attempt this server's span names as its parent).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/api/front"
	"crowdwifi/internal/crowd"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/par"
	"crowdwifi/internal/wal"
)

// Resilience defaults for the HTTP surface (the body caps are protocol:
// api.DefaultMaxBodyBytes, api.DefaultBatchMaxBodyBytes).
const (
	// DefaultRequestTimeout bounds each request's context.
	DefaultRequestTimeout = 10 * time.Second
	// MaxTaskCount caps ?count= on /v1/tasks.
	MaxTaskCount = 100
)

// The protocol is defined in internal/api. These aliases are the names the
// store's own code and bench/ — a separate module that spells them through
// this package — go on using; they define nothing. The block is the complete
// list to delete once bench/ imports internal/api itself.
type (
	Report           = api.Report
	APReport         = api.APReport
	Pattern          = api.Pattern
	Label            = api.Label
	LookupResult     = api.LookupResult
	BatchEntryStatus = api.BatchEntryStatus
)

const (
	FrameContentType     = api.FrameContentType
	IdempotencyKeyHeader = api.IdempotencyKeyHeader
)

var (
	EncodeReportFrame      = api.EncodeReportFrame
	SplitReportFrames      = api.SplitReportFrames
	EncodeLookupFrame      = api.EncodeLookupFrame
	DecodeBatchStatusFrame = api.DecodeBatchStatusFrame
)

// redMetrics prefixes the shard's RED families.
const redMetrics = "crowdwifi_http"

// Store is the crowd-server's state. All methods are safe for concurrent use.
//
// One write path. Every mutation — a pattern, a label block, a report block,
// a move block, a drop, a cycle's capture — is a log record: its mutator
// validates and encodes it off the lock, and commit (persist.go) checks it
// against the state, appends it and applies it in one hold of mu, with the
// same check and apply that replay runs on the decoded record. The store is
// what its log says by construction, and a record refused or not appended
// changes nothing. mu is never held across inference, fusion, a sort, or an
// encode of anything that grows with history. A pass over the whole history
// takes a capture (an O(1) hold) and works on the captured prefixes, which
// later appends cannot disturb. Reports are held as the bytes they were
// logged as (reports.go). The derived state lives in one view that is never
// written after it is published: Lookup and Reliability load the pointer and
// take no lock. A cycle logs what it read, not what it produced: the view is
// a function of the captured prefix, which replay recomputes. cycle is held
// by an aggregation cycle and by DropSegments for their whole run and by
// nothing else, so a drop is not undone by a cycle that captured the dropped
// reports, no drop falls between a capture and its record, and views are
// published in the order their records were logged; since a view is
// published by its commit, a failed cycle leaves live answers exactly where
// recovery would put them. A drop's apply alone filters history under mu — a
// rebalance step, too rare to earn a two-phase filter.
type Store struct {
	mu       sync.Mutex
	patterns []Pattern
	labels   []Label
	reports  reportLog

	view  atomic.Pointer[view]
	cycle sync.Mutex
	// replayed is the last capture record replay applied whose view is not
	// computed yet (see settle). Only recovery sets it, before the store
	// serves anything.
	replayed *capture

	mergeRadius float64
	metrics     Metrics

	// Durability (see persist.go). log is nil for an in-memory store. idem
	// belongs to the store, not to a Server, because a key is completed under
	// mu with the mutation it acknowledges — by recovery before any Server
	// exists, and on behalf of every Server built around this store.
	log     *wal.Log
	storage StorageOptions
	idem    *idemCache
	// snapped is the sequence the snapshot loaded at boot or last written
	// covers (0 for none: an empty directory is the empty state). Guarded by
	// mu.
	snapped uint64

	// Moves (cluster.go), both guarded by mu: received is how far each
	// source's segment has been applied here, dropped how many of a segment's
	// reports DropSegments removed, so that positions in an export stay
	// absolute.
	received map[moveKey]moveCursor
	dropped  map[string]int

	// batchChunk overrides the chunk budget (bytes of encoded entries per WAL
	// record of a batch, per block of an exported move); 0 selects
	// defaultBatchChunkBytes. Tests lower it to exercise multi-record
	// chunking without 16 MiB payloads.
	batchChunk int

	// durabilitySink holds the func(error) OnDurabilityError registered.
	durabilitySink atomic.Value

	// The commit queue (persist.go), guarded by gmu: the records waiting for
	// the next leader, the slice the last one gave back, and led to wake the
	// waiters when a leader is done. entries is the leader's, under mu.
	gmu          sync.Mutex
	led          sync.Cond
	queue, spare []*pending
	leading      bool
	entries      []wal.Record
}

// view is the derived state one aggregation cycle produced: the fused AP
// list per segment and the per-vehicle reliabilities that weighted it.
// Neither map is written once the view is published.
type view struct {
	fused       map[string][]LookupResult
	reliability map[string]float64
}

// capture is what a whole-history pass works on: the evidence as of one
// instant, the view and the log that go with it. The slices are capped at
// their length, so the prefix is immutable whatever is appended later.
type capture struct {
	patterns []Pattern
	labels   []Label
	reports  reportLog
	view     *view
	log      *wal.Log
}

func (s *Store) capture() capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.captureLocked()
}

func (s *Store) captureLocked() capture {
	return capture{
		patterns: s.patterns[:len(s.patterns):len(s.patterns)],
		labels:   s.labels[:len(s.labels):len(s.labels)],
		reports:  s.reports.prefix(s.reports.len()),
		view:     s.view.Load(),
		log:      s.log,
	}
}

// NewStore returns an empty store. mergeRadius controls fusion clustering
// (≤ 0 selects 10 m).
func NewStore(mergeRadius float64) *Store {
	if mergeRadius <= 0 {
		mergeRadius = 10
	}
	s := &Store{mergeRadius: mergeRadius, idem: newIdemCache(0)}
	s.led.L = &s.gmu
	s.view.Store(newView(nil, nil))
	return s
}

// Instrument attaches metrics to the store. Call before serving traffic;
// the store's hot paths read the bundle without synchronization.
func (s *Store) Instrument(m Metrics) {
	s.metrics = m
}

// AddPatternKeyed registers a mapping task and returns its id, with
// write-ahead durability semantics: the typed record (carrying the request's
// idempotency key, if any) is appended and synced per policy before the state
// mutates, and the canonical response is installed in the idempotency cache
// atomically with the mutation. An error is ErrDurability, ErrRecordTooLarge,
// or a pattern that is refused (non-finite coordinates). A traced ctx nests
// the mutation (and its WAL append/fsync) under the request's span.
func (s *Store) AddPatternKeyed(ctx context.Context, idemKey, segment string, aps []APReport) (int, error) {
	if err := checkAPs(aps); err != nil {
		return 0, err
	}
	ctx, span := trace.StartChild(ctx, "store.add_pattern")
	defer span.End()
	rec := record{kind: recPatternEntry, key: idemKey, pattern: Pattern{Segment: segment, APs: aps}}
	rec.data = appendPatternRecord(nil, 0, idemKey, rec.pattern)
	if err := s.commit(ctx, &rec); err != nil {
		span.SetError(err)
		return 0, err
	}
	span.SetAttr("pattern_id", rec.pattern.ID)
	return rec.pattern.ID, nil
}

// Patterns returns the mapping tasks, optionally filtered by segment. The
// result is never nil, so the HTTP layer encodes an empty list as [].
func (s *Store) Patterns(segment string) []Pattern {
	out := []Pattern{}
	for _, p := range s.capture().patterns {
		if segment == "" || p.Segment == segment {
			out = append(out, p)
		}
	}
	return out
}

// AddLabels records a batch of answers atomically: each must be ±1 and name
// a task that exists, or none is recorded, so a client retry of the fixed
// batch cannot double-apply a prefix.
func (s *Store) AddLabels(ls []Label) error {
	return s.AddLabelsKeyed(context.Background(), "", ls)
}

// AddLabelsKeyed is AddLabels with write-ahead durability semantics (see
// AddPatternKeyed). A refused batch never touches the log.
func (s *Store) AddLabelsKeyed(ctx context.Context, idemKey string, ls []Label) error {
	ctx, span := trace.StartChild(ctx, "store.add_labels")
	defer span.End()
	span.SetAttr("labels", len(ls))
	rec := record{kind: recLabelBlock, data: appendLabelsRecord(nil, idemKey, ls), key: idemKey, labels: ls}
	err := s.commit(ctx, &rec)
	span.SetError(err)
	return err
}

// AddReport stores a vehicle's AP report.
func (s *Store) AddReport(r Report) error {
	return s.AddReportKeyed(context.Background(), "", r)
}

// checkAPs refuses a pattern's coordinates and credits that are not finite,
// as reportEntry.check does a report's.
func checkAPs(aps []APReport) error {
	for i, ap := range aps {
		for _, v := range [3]float64{ap.X, ap.Y, ap.Credit} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("server: access point %d has a non-finite coordinate or credit", i)
			}
		}
	}
	return nil
}

// AddReportKeyed is AddReport with write-ahead durability semantics (see
// AddPatternKeyed).
func (s *Store) AddReportKeyed(ctx context.Context, idemKey string, r Report) error {
	return s.addReport(ctx, BatchItem{Key: idemKey, Report: r})
}

// addReport stores one report: a batch of one, on the batch path.
func (s *Store) addReport(ctx context.Context, it BatchItem) error {
	ctx, span := trace.StartChild(ctx, "store.add_report")
	defer span.End()
	span.SetAttr("vehicle", it.Report.Vehicle)
	span.SetAttr("segment", it.Report.Segment)
	errs, _, _ := s.addReports(ctx, []BatchItem{it})
	span.SetError(errs[0])
	return errs[0]
}

// Counts reports the stored pattern, label, and report volumes — the ground
// truth for exactly-once ingestion tests.
func (s *Store) Counts() (patterns, labels, reports int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.patterns), len(s.labels), s.reports.len()
}

// Reliability returns the inferred reliability map (copy).
func (s *Store) Reliability() map[string]float64 {
	return maps.Clone(s.view.Load().reliability)
}

// CycleStats summarizes one aggregation cycle for logging and metrics.
type CycleStats struct {
	// FusedAPs is the number of fused APs across all segments.
	FusedAPs int
	// Segments is the number of road segments with reports.
	Segments int
	// VehiclesScored is the number of vehicles assigned a reliability score.
	VehiclesScored int
	// SpammersFlagged counts vehicles whose normalized reliability fell
	// below 0.5 — the fusion threshold that strips their solo clusters.
	SpammersFlagged int
	// Duration is the cycle's wall-clock time.
	Duration time.Duration
}

// Aggregate runs the offline crowdsourcing pipeline: labels feed the
// iterative inference, whose per-vehicle reliabilities weight the centroid
// fusion of all AP reports (Sections 5.3–5.4). It returns the number of
// fused APs across segments.
func (s *Store) Aggregate() (int, error) {
	stats, err := s.AggregateCycleContext(context.Background())
	return stats.FusedAPs, err
}

// AggregateCycle runs one aggregation pass like Aggregate and additionally
// reports cycle statistics; metrics, when attached, are updated as a side
// effect. Equivalent to AggregateCycleContext with context.Background().
func (s *Store) AggregateCycle() (CycleStats, error) {
	return s.AggregateCycleContext(context.Background())
}

// AggregateCycleContext runs one aggregation pass under ctx: with a tracer
// (or an active span) in ctx, the cycle becomes a server.aggregate_cycle
// span with the inference and the cycle's WAL append as children.
func (s *Store) AggregateCycleContext(ctx context.Context) (CycleStats, error) {
	start := time.Now()
	// Root-or-child: a background cycle with just a tracer in ctx becomes
	// its own trace; an operator-triggered /v1/aggregate nests under the
	// request span.
	ctx, span := trace.Start(ctx, "server.aggregate_cycle")
	defer span.End()
	stats, err := s.aggregate(ctx)
	stats.Duration = time.Since(start)
	span.SetError(err)
	span.SetAttr("fused_aps", stats.FusedAPs)
	span.SetAttr("segments", stats.Segments)
	span.SetAttr("vehicles_scored", stats.VehiclesScored)
	span.SetAttr("spammers_flagged", stats.SpammersFlagged)
	s.metrics.observeAggregate(stats, s.view.Load().reliability, err)
	return stats, err
}

// aggregate runs one cycle on a captured prefix of the evidence. Uploads
// that land while it runs are not in that prefix: the next cycle fuses them.
func (s *Store) aggregate(ctx context.Context) (CycleStats, error) {
	s.cycle.Lock()
	defer s.cycle.Unlock()
	c := s.capture()
	next, stats, err := s.cycleView(ctx, c)
	if err != nil {
		return stats, err
	}
	return stats, s.publish(ctx, c, next)
}

// cycleView computes the view a cycle publishes over the captured evidence:
// reliabilities inferred from the labels, and the reports of each segment
// fused under them. It is a function of the capture alone, bit for bit at
// any worker count, which is what lets a cycle log what it read.
func (s *Store) cycleView(ctx context.Context, c capture) (*view, CycleStats, error) {
	var stats CycleStats
	rel := s.inferReliability(ctx, c)
	stats.VehiclesScored = len(rel)
	for _, r := range rel {
		if r < 0.5 {
			stats.SpammersFlagged++
		}
	}

	// Read each report once, where it lies: its segment's slot, its weight,
	// and its points into one slab in arrival order. Then lay the groups out
	// by counting sort: one slice of reports and one of weights for every
	// segment, each report's points a window of the slab.
	n := c.reports.len()
	slot := map[string]int{}
	var names []string // by slot
	var count []int    // reports per slot
	of := make([]int, n)
	ends := make([]int, n) // report i's points end at ends[i] of the slab
	w := make([]float64, n)
	// An AP takes 24 of its entry's bytes, so the log's size bounds the points.
	slab := make([]geo.Point, 0, len(c.reports.buf)/24)
	for i := range n {
		e := parseEntry(c.reports.entry(i))
		k, ok := slot[string(e.segment)]
		if !ok {
			k = len(names)
			names = append(names, string(e.segment))
			slot[names[k]] = k
			count = append(count, 0)
		}
		of[i] = k
		count[k]++
		for a := range e.numAPs() {
			x, y, _ := e.ap(a)
			slab = append(slab, geo.Point{X: x, Y: y})
		}
		ends[i] = len(slab)
		w[i] = 1
		if r, ok := rel[string(e.vehicle)]; ok {
			w[i] = r
		}
	}
	first := make([]int, len(names)+1) // slot k's reports are [first[k], first[k+1])
	for k, m := range count {
		first[k+1] = first[k] + m
	}
	grouped := make([]crowd.VehicleReport, n)
	weights := make([]float64, n)
	fill := append([]int(nil), first[:len(names)]...)
	at := 0
	for i := range n {
		k := of[i]
		grouped[fill[k]] = crowd.VehicleReport{Vehicle: fill[k] - first[k], APs: slab[at:ends[i]:ends[i]]}
		weights[fill[k]] = w[i]
		fill[k]++
		at = ends[i]
	}
	// Fuse segments concurrently: each segment's reports are independent, so
	// workers own disjoint segments and write disjoint result slots. Segments
	// are taken in name order, so results apply in a fixed order and an error
	// from the lowest-sorted failing segment wins regardless of scheduling —
	// the outcome is bit-identical at any worker count.
	order := make([]int, len(names))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
	fctx, fspan := trace.StartChild(ctx, "server.fusion")
	defer fspan.End()
	fused, err := par.Map(fctx, len(order), 0, func(i int) ([]geo.Point, error) {
		k := order[i]
		// MinWeight 0.5 drops clusters supported only by vehicles weighed
		// under half. Weights are min-max scaled (NormalizeReliability), so
		// only the cycle's most negative vehicle sits at 0.05: even on a
		// regular task graph 45–50 % of spammers weigh ≥ 0.5 and can plant
		// APs alone, as can a vehicle that answered no task (weight 1).
		return crowd.WeightedFusion(grouped[first[k]:first[k+1]], weights[first[k]:first[k+1]], crowd.FusionOptions{
			MergeRadius: s.mergeRadius,
			MinWeight:   0.5,
		})
	})
	if err != nil {
		fspan.SetError(err)
		return nil, stats, err
	}
	for _, f := range fused {
		stats.FusedAPs += len(f)
	}
	results := make([]LookupResult, 0, stats.FusedAPs)
	next := &view{fused: make(map[string][]LookupResult, len(order)), reliability: rel}
	for i, k := range order {
		at := len(results)
		for _, p := range fused[i] {
			results = append(results, LookupResult{X: p.X, Y: p.Y, Weight: 1})
		}
		next.fused[names[k]] = results[at:len(results):len(results)]
	}
	stats.Segments = len(order)
	fspan.SetAttr("segments", stats.Segments)
	return next, stats, nil
}

// publish logs what a cycle read — how many patterns, labels and reports its
// capture held, a record of fixed size however much history there is — and
// only then makes the view it computed from them the live one. Replay
// recomputes the view from the same prefixes, so it is exact whatever was
// appended while the cycle ran.
func (s *Store) publish(ctx context.Context, c capture, next *view) error {
	rec := record{kind: recCapture, view: next, counts: [3]int{len(c.patterns), len(c.labels), c.reports.len()}}
	rec.data = appendCapture(make([]byte, 0, 12), rec.counts)
	return s.commit(ctx, &rec)
}

// inferReliability runs iterative inference over the captured labels and
// maps the raw worker messages to [0,1] weights per vehicle id. Vehicles
// without labels default to weight 1 (no evidence against them).
func (s *Store) inferReliability(ctx context.Context, c capture) map[string]float64 {
	out := map[string]float64{}
	if len(c.labels) == 0 {
		return out
	}
	// Build a dense bipartite instance from the recorded labels, keeping
	// only each vehicle's first answer per task: number the vehicles in order
	// of appearance, file the answers by task in label order (a counting
	// sort), then keep each task's first answer per vehicle.
	tasks := len(c.patterns)
	widx := map[string]int{}
	var workerIDs []string
	worker := make([]int, len(c.labels))
	first := make([]int, tasks+1) // task i's answers are filed from first[i]
	for n, l := range c.labels {
		w, ok := widx[l.Vehicle]
		if !ok {
			w = len(workerIDs)
			widx[l.Vehicle] = w
			workerIDs = append(workerIDs, l.Vehicle)
		}
		worker[n] = w
		first[l.TaskID+1]++
	}
	for i := 0; i < tasks; i++ {
		first[i+1] += first[i]
	}
	filedW := make([]int, len(c.labels))
	filedV := make([]int8, len(c.labels))
	next := append([]int(nil), first[:tasks]...)
	for n, l := range c.labels {
		filedW[next[l.TaskID]] = worker[n]
		filedV[next[l.TaskID]] = int8(l.Value)
		next[l.TaskID]++
	}
	// seen[w] == i+1 once vehicle w has answered task i.
	seen := make([]int, len(workerIDs))
	taskWorkers := make([][]int, tasks)
	taskValues := make([][]int8, tasks)
	for i := 0; i < tasks; i++ {
		kept := first[i]
		for f := first[i]; f < first[i+1]; f++ {
			if w := filedW[f]; seen[w] != i+1 {
				seen[w] = i + 1
				filedW[kept], filedV[kept] = w, filedV[f]
				kept++
			}
		}
		taskWorkers[i] = filedW[first[i]:kept:kept]
		taskValues[i] = filedV[first[i]:kept:kept]
	}
	// WorkerTasks stays empty: no estimator reads it.
	a := &crowd.Assignment{NumTasks: tasks, NumWorkers: len(workerIDs), TaskWorkers: taskWorkers}
	labels := &crowd.Labels{Assignment: a, Values: taskValues}
	res := crowd.InferContext(ctx, labels, crowd.InferenceOptions{
		Metrics: s.metrics.Crowd,
	})
	norm := crowd.NormalizeReliability(res.WorkerReliability)
	out = make(map[string]float64, len(workerIDs))
	for w, id := range workerIDs {
		out[id] = norm[w]
	}
	return out
}

// Lookup returns the fused APs intersecting the query rectangle, across all
// segments. The result is never nil and is in api.SortLookup's total order,
// so two stores holding the same fused state (e.g. one recovered from disk)
// answer byte-for-byte identically.
func (s *Store) Lookup(area geo.Rect) []LookupResult {
	out := []LookupResult{}
	scanned := 0
	for _, results := range s.view.Load().fused {
		scanned += len(results)
		for _, r := range results {
			if area.Contains(geo.Point{X: r.X, Y: r.Y}) {
				out = append(out, r)
			}
		}
	}
	if t := lookupScanned; t != nil {
		t.Add(int64(scanned))
	}
	api.SortLookup(out)
	return out
}

// lookupScanned, when non-nil, counts the fused APs Lookup reads; the
// package's count test sets it while it drives lookups, and nothing else
// does. It is read once per Lookup call.
var lookupScanned *atomic.Int64

// taskLabelsRead, when non-nil, counts the labels AssignTasks reads; like
// lookupScanned, only the package's count test sets it.
var taskLabelsRead *atomic.Int64

// Server wires the store to an HTTP mux.
type Server struct {
	store   *Store
	mux     *http.ServeMux
	metrics Metrics
	log     *slog.Logger
	tracer  *trace.Tracer
	health  *obs.Health

	ov        *overload.Admission
	ovEnabled bool
	ovOpts    overload.Options

	// cluster is non-nil when the server runs as one shard of a cluster
	// (WithCluster): ingest is ownership-filtered and the /v1/cluster
	// endpoints are mounted. See cluster.go.
	cluster *clusterState

	// stack is the middleware every route is mounted through; debug is the
	// debug surface, built once and served on the API mux and by Debug().
	stack front.Stack
	debug *http.ServeMux
}

// Option configures a Server.
type Option func(*Server)

// WithMetrics attaches a metrics bundle: every route is wrapped with the
// request-counting middleware, the store's ingest and aggregation paths are
// instrumented, and /metrics plus pprof are mounted on the server's own mux.
func WithMetrics(m Metrics) Option {
	return func(s *Server) {
		s.metrics = m
		s.store.Instrument(m)
	}
}

// WithLogger attaches a structured logger used for request-level warnings;
// a server without one logs nothing.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithTracer attaches a tracer: every route continues (or starts) a trace
// from the incoming traceparent header, ingestion's dedupe/store/WAL steps
// become child spans, and /debug/traces (+ /debug/traces/{id}) is mounted on
// the server's own mux.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithHealth attaches a health tracker and mounts /healthz and /readyz on
// the server's own mux. The caller owns the readiness lifecycle (recovery,
// shutdown).
func WithHealth(h *obs.Health) Option {
	return func(s *Server) { s.health = h }
}

// WithOverload enables admission control and the durability state machine
// (see internal/overload): every route is classified into an endpoint family
// with its own fixed concurrency cap and short queue, durability faults flip
// the server read-only, and a background disk probe walks it back to healthy.
// The zero Options value selects all defaults; a nil Probe is wired to the
// store's durability probe. Start Overload().Controller().Run to drive
// recovery probing.
func WithOverload(o overload.Options) Option {
	return func(s *Server) { s.ovEnabled, s.ovOpts = true, o }
}

// New returns a server around the given store.
func New(store *Store, opts ...Option) *Server {
	s := &Server{
		store: store,
		mux:   http.NewServeMux(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.log == nil {
		s.log = obs.Discard
	}
	if s.ovEnabled {
		s.buildOverload()
	}
	s.stack = front.Stack{
		Tier:      "server",
		Metrics:   redMetrics,
		Registry:  s.metrics.registry,
		Sheds:     s.metrics.shed,
		Tracer:    s.tracer,
		Admission: s.ov,
		Timeout:   DefaultRequestTimeout,
	}
	handle := func(route string, h http.HandlerFunc) { s.stack.Handle(s.mux, route, h) }
	handle(api.RoutePatterns, s.ingest(api.DefaultMaxBodyBytes, s.dedupe(s.handlePatterns)))
	handle(api.RouteTasks, s.handleTasks)
	handle(api.RouteLabels, s.ingest(api.DefaultMaxBodyBytes, s.dedupe(s.handleLabels)))
	handle(api.RouteReports, s.ingest(api.DefaultMaxBodyBytes, s.dedupe(s.handleReports)))
	// Batch idempotency is per entry — keys ride inside the body — so the
	// whole-request dedupe does not apply.
	handle(api.RouteReportsBatch, s.ingest(api.DefaultBatchMaxBodyBytes, s.handleReportBatch))
	handle(api.RouteAggregate, s.handleAggregate)
	handle(api.RouteLookup, s.handleLookup)
	handle(api.RouteReliability, s.handleReliability)
	if s.cluster != nil {
		handle(api.RouteClusterDigest, s.handleClusterDigest)
		handle(api.RouteClusterSlice, s.handleClusterSlice)
		// A drop follows a move, so it takes the move's cap.
		handle(api.RouteClusterDrop, s.ingest(maxSliceBytes, s.handleClusterDrop))
		handle(api.RouteClusterMembers, s.ingest(api.DefaultMaxBodyBytes, s.handleClusterMembers))
	}
	s.debug = obs.Debug(s.metrics.registry, s.tracer.Store(), s.health)
	front.ServeDebug(s.mux, s.debug)
	return s
}

// Debug returns the server's debug surface — /metrics, /debug/*, /healthz,
// /readyz, whichever the options attached — for serving on a second listener
// next to the API mux, which carries the same handler.
func (s *Server) Debug() http.Handler { return s.debug }

// buildOverload finishes the admission controller's wiring once the other
// options (metrics, health, tracer, store) are resolved: transitions update
// /readyz's mode, log a warning, and — when a tracer is attached — record an
// overload.transition span.
func (s *Server) buildOverload() {
	o := s.ovOpts
	if o.Registry == nil {
		o.Registry = s.metrics.registry
	}
	if o.Probe == nil {
		o.Probe = s.store.ProbeDurability
	}
	user := o.OnTransition
	o.OnTransition = func(from, to overload.Mode, reason string) {
		s.health.SetMode(to.String())
		s.log.Warn("overload mode transition",
			"from", from.String(), "to", to.String(), "reason", reason)
		if s.tracer != nil {
			_, sp := trace.Start(trace.WithTracer(context.Background(), s.tracer), "overload.transition")
			sp.SetAttr("from", from.String())
			sp.SetAttr("to", to.String())
			sp.SetAttr("reason", reason)
			sp.End()
		}
		if user != nil {
			user(from, to, reason)
		}
	}
	s.ov = overload.New(o)
	s.health.SetMode(overload.ModeHealthy.String())
	// Every durability fault reaches the state machine through the store's
	// one write path: a failed append on any path.
	s.store.OnDurabilityError(s.ov.Controller().ReportDurabilityError)
}

// Overload exposes the admission controller (nil unless WithOverload was
// given). The caller should start Overload().Controller().Run to drive
// read-only recovery probing.
func (s *Server) Overload() *overload.Admission { return s.ov }

// ingest caps a write route's POST body.
func (s *Server) ingest(maxBody int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		h(w, r)
	}
}

// dedupe wraps a write route with idempotency-key deduplication. The
// canonical response of a committed mutation is cached by key and replayed
// verbatim for duplicate deliveries (client retries after a lost response,
// outbox replays), making ingestion exactly-once in effect.
func (s *Server) dedupe(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(IdempotencyKeyHeader)
		if r.Method != http.MethodPost || key == "" {
			h(w, r)
			return
		}
		// The dedupe decision is its own span: replayed deliveries show up
		// in the trace as a short server.dedupe instead of a full handler.
		_, dspan := trace.StartChild(r.Context(), "server.dedupe")
		dspan.SetAttr("idempotency_key", key)
		seen, rec := s.store.idem.begin(key)
		dspan.SetAttr("duplicate", seen)
		if seen {
			defer dspan.End()
			if rec == nil {
				// A first delivery of this key is still executing; the
				// duplicate cannot be answered yet, so push it to retry.
				dspan.AddEvent("first delivery still in flight")
				s.stack.Shed(w, errors.New("duplicate request still in flight"), overload.ShedRetryAfter)
				return
			}
			s.metrics.deduped.Inc()
			dspan.AddEvent("replayed canonical response")
			w.Header().Set("Idempotent-Replay", "true")
			writeCanned(w, *rec)
			return
		}
		dspan.End()
		h(w, r)
		// A mutation that committed has completed the key under the store's
		// lock; whatever else the handler answered must free it for a retry.
		s.store.idem.release(key)
	}
}

// decodeBody decodes a JSON request body into v, mapping oversize bodies to
// 413 and malformed JSON to 400. It reports whether decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err != nil {
		s.bodyError(w, err)
	}
	return err == nil
}

// bodyError answers a failed body read or decode and counts cap rejections.
func (s *Server) bodyError(w http.ResponseWriter, err error) {
	if api.WriteBodyError(w, err) {
		s.metrics.bodyLimited.Inc()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

var _ http.Handler = (*Server)(nil)

// writeCanned sends a mutation's canonical acknowledgement (see
// cannedResponse in persist.go).
func writeCanned(w http.ResponseWriter, resp cannedResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// mutationError answers a failed mutation with its status (mutationStatus)
// and logs a durability fault.
func (s *Server) mutationError(w http.ResponseWriter, err error) {
	status := s.mutationStatus(err)
	if status == http.StatusInternalServerError {
		s.log.Error("durable append failed", "err", err)
	}
	api.WriteError(w, status, err)
}

// mutationStatus maps a durable-mutator error to the HTTP status of a request
// or a batch entry: a record the WAL refused by size is the request's fault
// (413, counted with the capped bodies), a failed append the server's (500,
// retryable), anything else a validation failure (400).
func (s *Server) mutationStatus(err error) int {
	switch {
	case errors.Is(err, ErrRecordTooLarge):
		s.metrics.bodyLimited.Inc()
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrDurability):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// handlePatterns: POST registers a pattern; GET lists patterns (optionally
// ?segment=...).
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var p Pattern
		if !s.decodeBody(w, r, &p) {
			return
		}
		if p.Segment == "" {
			api.WriteError(w, http.StatusBadRequest, errors.New("segment required"))
			return
		}
		if owner, mis := s.misdirected(p.Segment); mis {
			s.rejectMisdirected(w, p.Segment, owner)
			return
		}
		id, err := s.store.AddPatternKeyed(r.Context(), r.Header.Get(IdempotencyKeyHeader), p.Segment, p.APs)
		if err != nil {
			s.mutationError(w, err)
			return
		}
		writeCanned(w, patternResponse(id))
	case http.MethodGet:
		api.WriteJSON(w, http.StatusOK, s.store.Patterns(r.URL.Query().Get("segment")))
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// handleTasks assigns up to n=?count mapping tasks to ?vehicle (see
// Store.AssignTasks).
func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	vehicle := r.URL.Query().Get("vehicle")
	if vehicle == "" {
		api.WriteError(w, http.StatusBadRequest, errors.New("vehicle required"))
		return
	}
	count := 5
	if c := r.URL.Query().Get("count"); c != "" {
		v, err := strconv.Atoi(c)
		if err != nil || v <= 0 {
			api.WriteError(w, http.StatusBadRequest, errors.New("bad count"))
			return
		}
		if v > MaxTaskCount {
			api.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("count %d exceeds the assignment cap %d", v, MaxTaskCount))
			return
		}
		count = v
	}
	api.WriteJSON(w, http.StatusOK, s.store.AssignTasks(vehicle, count))
}

// AssignTasks picks up to count patterns for a vehicle among the tasks it
// has not answered, and returns them in id order. Fewest-labelled tasks go
// first, which keeps task degrees balanced; ties go by a hash of (vehicle,
// the task's segment, its position in that segment). The hash gives each
// vehicle its own tie order, so the task graph is random, as Section 5.2's
// inference assumes. A shared tie order would split the graph into
// disjoint blocks of the vehicles that arrived together.
func (s *Store) AssignTasks(vehicle string, count int) []Pattern {
	c := s.capture()
	answered := make([]bool, len(c.patterns))
	counts := make([]int, len(c.patterns))
	read := 0
	for _, l := range c.labels {
		read++
		if l.Vehicle == vehicle {
			answered[l.TaskID] = true
		}
		counts[l.TaskID]++
	}
	if t := taskLabelsRead; t != nil {
		t.Add(int64(read))
	}
	type candidate struct {
		id   int
		hash uint64
	}
	less := func(x, y candidate) bool {
		if counts[x.id] != counts[y.id] {
			return counts[x.id] < counts[y.id]
		}
		if x.hash != y.hash {
			return x.hash < y.hash
		}
		return x.id < y.id
	}
	// Keep the count best candidates in order: a bounded insertion, since
	// count is small and a full sort of the candidates is not.
	best := make([]candidate, 0, max(0, min(count, len(c.patterns))))
	vh := fnv1a(fnvOffset64, vehicle)
	pos := make(map[string]int, len(c.patterns))
	for i, p := range c.patterns {
		k := pos[p.Segment]
		pos[p.Segment] = k + 1
		if answered[i] {
			continue
		}
		h := fnv1a(vh, p.Segment)
		for b := 0; b < 64; b += 8 {
			h = (h ^ uint64(k>>b)&0xff) * fnvPrime64
		}
		cd := candidate{i, h}
		j := sort.Search(len(best), func(j int) bool { return less(cd, best[j]) })
		if j >= count {
			continue
		}
		if len(best) < count {
			best = append(best, cd)
		}
		copy(best[j+1:], best[j:len(best)-1])
		best[j] = cd
	}
	sort.Slice(best, func(a, b int) bool { return best[a].id < best[b].id })
	out := make([]Pattern, len(best))
	for i, cd := range best {
		out[i] = c.patterns[cd.id]
	}
	return out
}

// FNV-1a, 64-bit: the task tie-break hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s and a terminating zero byte into the FNV-1a state h, so
// that fields folded one after another stay apart.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h * fnvPrime64
}

func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	var ls []Label
	if !s.decodeBody(w, r, &ls) {
		return
	}
	if err := s.store.AddLabelsKeyed(r.Context(), r.Header.Get(IdempotencyKeyHeader), ls); err != nil {
		s.mutationError(w, err)
		return
	}
	writeCanned(w, labelsResponse(len(ls)))
}

func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	it := BatchItem{Key: r.Header.Get(IdempotencyKeyHeader)}
	if api.IsFrameRequest(r) {
		body, ok := s.readBody(w, r, api.DefaultMaxBodyBytes)
		if !ok {
			return
		}
		entries, err := frameEntries(body)
		if err == nil && len(entries) != 1 {
			err = fmt.Errorf("expected exactly one report frame, got %d", len(entries))
		}
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// Logged under the request's key, as a JSON report is; its names are
		// for the ownership test and the trace.
		e := parseEntry(entries[0])
		it.entry, it.Report = entries[0], Report{Vehicle: string(e.vehicle), Segment: string(e.segment)}
	} else if !s.decodeBody(w, r, &it.Report) {
		return
	}
	if owner, mis := s.misdirected(it.Report.Segment); mis {
		s.rejectMisdirected(w, it.Report.Segment, owner)
		return
	}
	if err := s.store.addReport(r.Context(), it); err != nil {
		s.mutationError(w, err)
		return
	}
	writeCanned(w, reportStored)
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	stats, err := s.store.AggregateCycleContext(r.Context())
	if err != nil {
		s.log.Warn("aggregate request failed", "err", err)
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]int{"fusedAPs": stats.FusedAPs})
}

// handleLookup serves GET /v1/lookup?xmin=&ymin=&xmax=&ymax=.
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	area, err := api.ParseLookupQuery(r.URL.Query())
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	results := s.store.Lookup(area)
	if api.WantsFrame(r.Header.Get("Accept")) {
		writeFrame(w, api.EncodeLookupFrame(results))
		return
	}
	// Store.Lookup never returns nil, so empty results encode as [].
	api.WriteJSON(w, http.StatusOK, results)
}

// writeFrame sends a 200 with a binary-codec body.
func writeFrame(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", api.FrameContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleReliability(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	api.WriteJSON(w, http.StatusOK, s.store.Reliability())
}
