package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs/trace"
)

// Move records one repaired drift: a segment's data found resident on a
// non-owner shard and streamed to its owner.
type Move struct {
	Segment string `json:"segment"`
	From    string `json:"from"`
	To      string `json:"to"`
}

// ReconcileReport summarizes one reconcile pass.
type ReconcileReport struct {
	// Moves are the repaired drifts, sorted by segment then source shard.
	Moves []Move `json:"moves"`
	// Stats accumulates what the owners ingested.
	Stats api.SliceStats `json:"stats"`
	// DroppedReports counts reports removed from non-owner residents.
	DroppedReports int `json:"droppedReports"`
	// Reaggregated lists the shards re-aggregated after the moves.
	Reaggregated []string `json:"reaggregated,omitempty"`
}

// Reconcile detects and repairs cross-shard drift: segments whose data
// (reports or fused results) lives on a shard the current ring does not
// name as owner — the residue of a crashed rebalance, a membership change
// applied to some shards and not others, or uploads routed through a stale
// ring. For every drifted segment the pass moves the resident's blocks to
// the owner (deduplicated by position, so repair after a partial repair is
// safe), drops the moved segments from the resident, re-aggregates every
// touched shard, and verifies by re-fetching digests. A run on a healthy
// cluster is a cheap no-op: one digest fetch per shard.
func (rt *Router) Reconcile(ctx context.Context) (*ReconcileReport, error) {
	ctx, span := trace.StartChild(ctx, "cluster.reconcile")
	defer span.End()
	report := &ReconcileReport{}

	drifted, err := rt.findDrift(ctx)
	if err != nil {
		span.SetError(err)
		return report, err
	}
	if len(drifted) == 0 {
		return report, nil
	}

	// Group drifted segments by (resident, owner) so each pair moves in one
	// transfer, and fix the processing order for determinism.
	type pair struct{ from, to string }
	groups := map[pair][]string{}
	for _, m := range drifted {
		p := pair{m.From, m.To}
		groups[p] = append(groups[p], m.Segment)
	}
	pairs := make([]pair, 0, len(groups))
	for p := range groups {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].from != pairs[j].from {
			return pairs[i].from < pairs[j].from
		}
		return pairs[i].to < pairs[j].to
	})

	touched := map[string]bool{}
	var errs []error
	for _, p := range pairs {
		segments := groups[p]
		sort.Strings(segments)
		move, err := rt.peerDo(ctx, p.from, http.MethodGet, api.RouteClusterSlice,
			"segments="+strings.Join(segments, ","), "", "", nil)
		if err != nil {
			errs = append(errs, fmt.Errorf("reconcile: export %s from %s: %w",
				strings.Join(segments, ","), p.from, err))
			continue
		}
		if len(move) > 0 {
			stats, err := rt.applyMove(ctx, p.to, move)
			report.Stats.Add(stats)
			if err != nil {
				errs = append(errs, fmt.Errorf("reconcile: apply to %s: %w", p.to, err))
				continue
			}
		}
		// Drop only after the owner acked the apply: a failed apply leaves
		// the resident's copy in place for the next pass.
		var dropped struct {
			DroppedReports int `json:"droppedReports"`
		}
		if err := rt.peerPostJSON(ctx, p.from, api.RouteClusterDrop,
			api.DropRequest{Segments: segments}, &dropped); err != nil {
			errs = append(errs, fmt.Errorf("reconcile: drop on %s: %w", p.from, err))
			continue
		}
		report.DroppedReports += dropped.DroppedReports
		touched[p.from], touched[p.to] = true, true
		for _, seg := range segments {
			report.Moves = append(report.Moves, Move{Segment: seg, From: p.from, To: p.to})
		}
		rt.log.Info("reconciled drift", "from", p.from, "to", p.to,
			"segments", strings.Join(segments, ","))
	}
	sortMoves(report.Moves)

	// Moves carry raw reports; fused maps on both sides are stale until the
	// shards re-derive them.
	for id := range touched {
		report.Reaggregated = append(report.Reaggregated, id)
	}
	sort.Strings(report.Reaggregated)
	for _, id := range report.Reaggregated {
		if err := rt.peerPostJSON(ctx, id, api.RouteAggregate, struct{}{}, nil); err != nil {
			errs = append(errs, fmt.Errorf("reconcile: re-aggregate %s: %w", id, err))
		}
	}

	if len(errs) == 0 {
		// Verify: a clean pass leaves no drift behind.
		remaining, err := rt.findDrift(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("reconcile: verify: %w", err))
		} else if len(remaining) > 0 {
			names := make([]string, 0, len(remaining))
			for _, m := range remaining {
				names = append(names, fmt.Sprintf("%s@%s", m.Segment, m.From))
			}
			errs = append(errs, fmt.Errorf("reconcile: drift remains after repair: %s",
				strings.Join(names, ",")))
		}
	}
	err = errors.Join(errs...)
	span.SetError(err)
	span.SetAttr("moves", len(report.Moves))
	return report, err
}

// findDrift fetches every member's per-segment digests and returns the
// segments resident (with data) on a shard the current ring does not name
// as owner.
func (rt *Router) findDrift(ctx context.Context) ([]Move, error) {
	rg := rt.ring.Load()
	var drifted []Move
	digests, _, errs := partition[api.DigestResponse](rt.scatter(ctx, http.MethodGet, api.RouteClusterDigest, ""))
	for _, dig := range digests {
		_, moves := drift(rg.Owner, dig.ID, dig.Value.Segments)
		drifted = append(drifted, moves...)
	}
	sortMoves(drifted)
	return drifted, errors.Join(errs...)
}

// drift splits one shard's resident segments by the ring: owned counts those
// holding data (see api.SegmentDigest.HasData) that owner assigns to shard,
// and moves lists the others, each from shard to its owner. Reconcile and
// /debug/cluster both read drift through it.
func drift(owner func(segment string) string, shard string, segments map[string]api.SegmentDigest) (owned int, moves []Move) {
	for seg, d := range segments {
		if !d.HasData() {
			continue
		}
		if to := owner(seg); to == shard {
			owned++
		} else {
			moves = append(moves, Move{Segment: seg, From: shard, To: to})
		}
	}
	return owned, moves
}

// sortMoves orders moves by segment, then source shard.
func sortMoves(moves []Move) {
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].Segment != moves[j].Segment {
			return moves[i].Segment < moves[j].Segment
		}
		return moves[i].From < moves[j].From
	})
}
