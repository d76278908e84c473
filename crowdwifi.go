// Package crowdwifi is a from-scratch reproduction of "CrowdWiFi: Efficient
// Crowdsensing of Roadside WiFi Networks" (ACM Middleware 2014): a vehicular
// middleware that identifies and localizes roadside WiFi access points.
//
// The library has two halves, mirroring the paper:
//
//   - Online compressive sensing (NewEngine): a vehicle feeds drive-by RSS
//     measurements into an Engine, which recovers the number and coarse
//     locations of nearby APs over a grid via ℓ1 minimization, with sliding
//     windows, BIC model selection, and credit-based consolidation.
//
//   - Offline crowdsourcing (NewServerStore / NewCrowdVehicle /
//     NewUserVehicle): a crowd-server assigns AP-pattern mapping tasks to
//     crowd-vehicles over a bipartite graph, infers each vehicle's
//     reliability with iterative message passing, and fuses uploaded AP
//     reports with reliability-weighted centroids. User-vehicles download
//     the fused lookup results for opportunistic WiFi access.
//
// Everything the evaluation depends on — dense linear algebra, sparse
// recovery solvers, the radio channel, vehicular simulators, the handoff and
// transfer studies, and the comparison baselines (LGMM, MDS, Skyhook) — is
// implemented in this module with no dependencies beyond the standard
// library. See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package crowdwifi

import (
	"context"
	"io"
	"net/http"

	"crowdwifi/internal/chaos"
	"crowdwifi/internal/client"
	"crowdwifi/internal/cs"
	"crowdwifi/internal/eval"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/server"
	"crowdwifi/internal/sim"
	"crowdwifi/internal/topology"
	"crowdwifi/internal/traceio"
	"crowdwifi/internal/wal"
)

// Core geometric and radio types, re-exported for API stability.
type (
	// Point is a planar position in metres.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Trajectory is a waypoint polyline a vehicle drives along.
	Trajectory = geo.Trajectory
	// Channel is the log-distance path loss model with shadow fading.
	Channel = radio.Channel
	// Measurement is one drive-by RSS reading.
	Measurement = radio.Measurement
)

// Online compressive sensing types.
type (
	// Engine is the vehicle-side online CS pipeline.
	Engine = cs.Engine
	// EngineConfig configures an Engine.
	EngineConfig = cs.EngineConfig
	// Estimate is a consolidated AP estimate with credit.
	Estimate = cs.Estimate
	// RoundResult reports one sliding-window round.
	RoundResult = cs.RoundResult
	// RecoveryOptions tunes a single ℓ1 grid recovery.
	RecoveryOptions = cs.RecoveryOptions
	// SelectOptions tunes BIC model-order selection.
	SelectOptions = cs.SelectOptions
)

// Middleware types.
type (
	// ServerStore is the crowd-server state (task pool, labels, reports,
	// fused AP database, reliabilities).
	ServerStore = server.Store
	// CrowdVehicle is the worker-party client.
	CrowdVehicle = client.CrowdVehicle
	// UserVehicle is the consumer-party client.
	UserVehicle = client.UserVehicle
	// Scenario is a simulated world (area, APs, channel).
	Scenario = sim.Scenario
)

// Resilience types: the fault-tolerant vehicle↔server transport
// (retries, circuit breaking, store-and-forward) and the deterministic
// fault-injection harness used to test it.
type (
	// HTTPDoer is the minimal HTTP client interface the resilience stack
	// wraps; *http.Client satisfies it.
	HTTPDoer = client.HTTPDoer
	// RetryPolicy tunes exponential backoff with full jitter.
	RetryPolicy = retry.Policy
	// Breaker is a circuit breaker that fast-fails requests to an
	// endpoint that keeps erroring, then probes for recovery.
	Breaker = retry.Breaker
	// BreakerConfig configures a Breaker.
	BreakerConfig = retry.BreakerConfig
	// Outbox is the store-and-forward queue a CrowdVehicle parks
	// undeliverable uploads in; see ErrQueued.
	Outbox = client.Outbox
	// ChaosFault is the per-request fault mix (drop, delay, 5xx,
	// truncation, reset) for the deterministic injection harness.
	ChaosFault = chaos.Fault
)

// ErrQueued reports that an upload could not be delivered and was parked in
// the vehicle's Outbox; CrowdVehicle.DrainOutbox (or process exit via
// crowdwifi-vehicle's drain) replays it with the same idempotency key.
var ErrQueued = client.ErrQueued

// NewBreaker builds a circuit breaker; the zero BreakerConfig selects
// sensible defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return retry.NewBreaker(cfg)
}

// NewRetryDoer wraps next (nil selects http.DefaultClient) with
// exponential-backoff retries under policy and an optional circuit breaker
// (nil disables breaking). Assign the result to CrowdVehicle.HTTP or
// UserVehicle.HTTP to make their requests fault tolerant.
func NewRetryDoer(next HTTPDoer, policy RetryPolicy, breaker *Breaker) HTTPDoer {
	return retry.NewDoer(next, policy, retry.WithBreaker(breaker))
}

// NewOutbox builds a store-and-forward outbox (capacity ≤ 0 selects the
// default); assign it to CrowdVehicle.Outbox so failed uploads queue instead
// of erroring.
func NewOutbox(capacity int) *Outbox {
	return client.NewOutbox(capacity)
}

// NewChaosDoer wraps next with deterministic, seedable client-side fault
// injection — the same schedule for the same seed, every run.
func NewChaosDoer(next HTTPDoer, f ChaosFault, seed uint64) HTTPDoer {
	return chaos.NewInjector(next, f, seed)
}

// NewChaosMiddleware wraps an HTTP handler with deterministic server-side
// fault injection.
func NewChaosMiddleware(next http.Handler, f ChaosFault, seed uint64) http.Handler {
	return chaos.Middleware(next, f, seed)
}

// NewEngine builds the online compressive sensing engine (Section 4 of the
// paper). Feed it measurements with Engine.Add or Engine.AddBatch and read
// consolidated AP estimates with Engine.FinalEstimates.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	return cs.NewEngine(cfg)
}

// NewTrajectory builds a drive route over at least two waypoints.
func NewTrajectory(waypoints []Point) (*Trajectory, error) {
	return geo.NewTrajectory(waypoints)
}

// UCIChannel returns the paper's UCI simulation channel (path loss 45.6 dB
// at 1 m, exponent 1.76, shadow fading 0.5 dB).
func UCIChannel() Channel { return radio.UCIChannel() }

// UCIScenario returns the paper's UCI campus simulation world: 8 APs on a
// 300 m × 180 m map.
func UCIScenario() Scenario { return sim.UCI() }

// NewServerStore creates crowd-server state; mergeRadius controls how close
// AP reports must be to fuse (≤ 0 selects 10 m).
func NewServerStore(mergeRadius float64) *ServerStore {
	return server.NewStore(mergeRadius)
}

// Durable storage types: the crowd-server's write-ahead log + snapshot
// subsystem (internal/wal) and its Store wiring.
type (
	// StorageOptions configures the crowd-server's durability (data
	// directory, fsync policy, segment size, snapshot retention). The zero
	// value keeps the store in memory.
	StorageOptions = server.StorageOptions
	// RecoveryStats summarizes one boot's snapshot load and WAL replay.
	RecoveryStats = server.RecoveryStats
	// WALSyncPolicy selects when WAL appends are fsynced.
	WALSyncPolicy = wal.SyncPolicy
)

// WAL fsync policies, re-exported for StorageOptions.Fsync.
const (
	// SyncAlways fsyncs every append: an acknowledged upload is durable.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a background timer.
	SyncInterval = wal.SyncInterval
	// SyncOff leaves flushing to the OS.
	SyncOff = wal.SyncOff
)

// ParseWALSyncPolicy maps "always", "interval", or "off" to a policy —
// handy for flag parsing in embedding programs.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) {
	return wal.ParseSyncPolicy(s)
}

// OpenServerStore creates crowd-server state backed by a write-ahead log
// and snapshots in opts.Dir: the newest snapshot is loaded, the log suffix
// replayed (a torn final record is truncated, not fatal), and every later
// mutation is logged before it is acknowledged. An empty opts.Dir behaves
// exactly like NewServerStore. Pair it with NewServerHandler and call
// ServerStore.Snapshot periodically plus ServerStore.Close on shutdown.
func OpenServerStore(mergeRadius float64, opts StorageOptions) (*ServerStore, RecoveryStats, error) {
	return server.OpenStore(mergeRadius, opts)
}

// NewServerHandler wraps a store in the crowd-server's HTTP API
// (/v1/patterns, /v1/tasks, /v1/labels, /v1/reports, /v1/aggregate,
// /v1/lookup, /v1/reliability).
func NewServerHandler(store *ServerStore) http.Handler {
	return server.New(store)
}

// NewCrowdVehicle builds the worker-party client against a crowd-server.
func NewCrowdVehicle(id, baseURL string, cfg EngineConfig) (*CrowdVehicle, error) {
	return client.NewCrowdVehicle(id, baseURL, cfg)
}

// NewUserVehicle builds the consumer-party client.
func NewUserVehicle(baseURL string) *UserVehicle {
	return client.NewUserVehicle(baseURL)
}

// Aggregate asks a crowd-server to run reliability inference and weighted
// fusion now, returning the fused AP count.
func Aggregate(ctx context.Context, baseURL string) (int, error) {
	return client.Aggregate(ctx, nil, baseURL)
}

// Reliability fetches a crowd-server's per-vehicle reliability map.
func Reliability(ctx context.Context, baseURL string) (map[string]float64, error) {
	return client.Reliability(ctx, nil, baseURL)
}

// LocalizationError is the paper's normalized localization error: the mean
// optimally-matched truth↔estimate distance divided by the lattice length
// (Section 6). Multiply by 100 for the paper's percentages.
func LocalizationError(truth, estimates []Point, lattice float64) float64 {
	return eval.LocalizationError(truth, estimates, lattice)
}

// CountingError is the paper's counting error |k̂−k|/k for a single grid.
func CountingError(actual, estimated int) float64 {
	return eval.CountingError([]int{actual}, []int{estimated})
}

// MeanMatchedDistance is the average truth↔estimate distance in metres
// under optimal matching — the absolute error figure the paper quotes.
func MeanMatchedDistance(truth, estimates []Point) float64 {
	return eval.MeanMatchedDistance(truth, estimates)
}

// Topology analysis types (the WiFi topology service of Fig. 1).
type (
	// InterferenceGraph is the co-interference structure of a deployment.
	InterferenceGraph = topology.Graph
	// CoverageReport summarizes a deployment's spatial coverage.
	CoverageReport = topology.CoverageReport
)

// BuildInterferenceGraph analyzes a crowdsensed AP set: APs within
// interferenceRange of each other become neighbours.
func BuildInterferenceGraph(aps []Point, interferenceRange float64) (*InterferenceGraph, error) {
	return topology.BuildGraph(aps, interferenceRange)
}

// AnalyzeCoverage rasterizes the area and reports covered fraction, AP
// density and mean nearest-AP distance for a crowdsensed deployment.
func AnalyzeCoverage(aps []Point, area Rect, serviceRange, resolution float64) (*CoverageReport, error) {
	return topology.Coverage(aps, area, serviceRange, resolution)
}

// WriteMeasurementsCSV persists a measurement trace as CSV
// (time_s, x_m, y_m, rss_dbm, source).
func WriteMeasurementsCSV(w io.Writer, ms []Measurement) error {
	return traceio.WriteMeasurements(w, ms)
}

// ReadMeasurementsCSV parses a measurement trace written by
// WriteMeasurementsCSV (or by any collector that produces the same columns).
func ReadMeasurementsCSV(r io.Reader) ([]Measurement, error) {
	return traceio.ReadMeasurements(r)
}

// WriteEstimatesCSV persists consolidated AP estimates as CSV
// (x_m, y_m, credit).
func WriteEstimatesCSV(w io.Writer, ests []Estimate) error {
	return traceio.WriteEstimates(w, ests)
}

// ReadEstimatesCSV parses estimates written by WriteEstimatesCSV.
func ReadEstimatesCSV(r io.Reader) ([]Estimate, error) {
	return traceio.ReadEstimates(r)
}

// EstimatePositions projects estimates onto their positions.
func EstimatePositions(ests []Estimate) []Point {
	out := make([]Point, len(ests))
	for i, e := range ests {
		out[i] = e.Pos
	}
	return out
}
