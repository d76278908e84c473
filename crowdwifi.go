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
// Everything the evaluation depends on — dense linear algebra, the sparse
// recovery solver, the radio channel, vehicular simulators, the handoff and
// transfer studies, and the comparison baselines (LGMM, MDS, Skyhook) — is
// implemented in this module with no dependencies beyond the standard
// library. See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package crowdwifi

import (
	"context"
	"net/http"

	"crowdwifi/internal/client"
	"crowdwifi/internal/cs"
	"crowdwifi/internal/eval"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/server"
	"crowdwifi/internal/sim"
)

// Core geometric and radio types, re-exported for API stability.
type (
	// Point is a planar position in metres.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
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

// NewEngine builds the online compressive sensing engine (Section 4 of the
// paper). Feed it measurements with Engine.Add or Engine.AddBatch and read
// consolidated AP estimates with Engine.FinalEstimates.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	return cs.NewEngine(cfg)
}

// NewTrajectory builds a drive route over at least two waypoints.
func NewTrajectory(waypoints []Point) (*geo.Trajectory, error) {
	return geo.NewTrajectory(waypoints)
}

// UCIChannel returns the paper's UCI simulation channel (path loss 45.6 dB
// at 1 m, exponent 1.76, shadow fading 0.5 dB).
func UCIChannel() Channel { return radio.UCIChannel() }

// UCIScenario returns the paper's UCI campus simulation world: 8 APs on a
// 300 m × 180 m map.
func UCIScenario() Scenario { return sim.UCI() }

// NewServerStore creates in-memory crowd-server state; mergeRadius controls
// how close AP reports must be to fuse (≤ 0 selects 10 m).
func NewServerStore(mergeRadius float64) *ServerStore {
	return server.NewStore(mergeRadius)
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

// CountingError is the paper's counting error |k̂−k|/k for a single grid.
func CountingError(actual, estimated int) float64 {
	return eval.CountingError([]int{actual}, []int{estimated})
}

// MeanMatchedDistance is the average truth↔estimate distance in metres
// under optimal matching — the absolute error figure the paper quotes.
func MeanMatchedDistance(truth, estimates []Point) float64 {
	return eval.MeanMatchedDistance(truth, estimates)
}

// EstimatePositions projects estimates onto their positions.
func EstimatePositions(ests []Estimate) []Point {
	out := make([]Point, len(ests))
	for i, e := range ests {
		out[i] = e.Pos
	}
	return out
}
