package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/server"
)

// peerGetJSON fetches path?query from a shard and decodes the 200 body.
func (rt *Router) peerGetJSON(ctx context.Context, id, path, query string, v any) error {
	pc := rt.peer(id)
	if pc == nil {
		return fmt.Errorf("cluster: shard %q is not a configured peer", id)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, pc.endpoint(path, query), nil)
	if err != nil {
		return err
	}
	resp, err := rt.send(pc, req)
	if err != nil {
		return fmt.Errorf("shard %s: %w", id, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSliceBytes))
	if err != nil {
		return fmt.Errorf("shard %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %s: %s %s: status %d: %s",
			id, http.MethodGet, path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

// peerPostJSON posts body to a shard and decodes the 200 response into out
// (out may be nil to discard it).
func (rt *Router) peerPostJSON(ctx context.Context, id, path string, body, out any) error {
	pc := rt.peer(id)
	if pc == nil {
		return fmt.Errorf("cluster: shard %q is not a configured peer", id)
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, pc.endpoint(path, ""), bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.send(pc, req)
	if err != nil {
		return fmt.Errorf("shard %s: %w", id, err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxSliceBytes))
	if err != nil {
		return fmt.Errorf("shard %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %s: %s %s: status %d: %s",
			id, http.MethodPost, path, resp.StatusCode, strings.TrimSpace(string(respBody)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(respBody, out)
}

// partitionSlice splits a departing shard's export by the current ring:
// every item goes to the slice of the shard now owning its segment. Items
// keep their deterministic keys, so applying a partition twice (a crashed
// rebalance rerun) dedupes instead of double-ingesting.
func (rt *Router) partitionSlice(sl api.Slice) map[string]*api.Slice {
	rg := rt.ring.Load()
	out := map[string]*api.Slice{}
	target := func(segment string) *api.Slice {
		owner := rg.Owner(segment)
		t, ok := out[owner]
		if !ok {
			t = &api.Slice{Source: sl.Source}
			out[owner] = t
		}
		return t
	}
	for _, p := range sl.Patterns {
		t := target(p.Segment)
		t.Patterns = append(t.Patterns, p)
	}
	for _, r := range sl.Reports {
		t := target(r.Report.Segment)
		t.Reports = append(t.Reports, r)
	}
	for _, l := range sl.Labels {
		t := target(l.Segment)
		t.Labels = append(t.Labels, l)
	}
	return out
}

// RebalanceFromDir recovers a departed shard's data from its WAL directory:
// the full durable state is rebuilt offline (snapshot + segment replay, the
// same recovery path the shard itself would run), sliced by the current
// ring, and streamed to each new owner through the idempotent slice-apply
// endpoint. mergeRadius must match the departed shard's fusion radius;
// source names the departed shard (it prefixes the apply keys, so two
// departed shards' identical reports never collide).
//
// The caller re-aggregates afterwards — slices move raw reports, not fused
// derived state.
func (rt *Router) RebalanceFromDir(ctx context.Context, dir string, mergeRadius float64, source string) (api.SliceStats, error) {
	var total api.SliceStats
	ctx, span := trace.StartChild(ctx, "cluster.rebalance_from_dir")
	span.SetAttr("source", source)
	defer span.End()

	sl, err := server.ExportSliceFromDir(dir, mergeRadius, source)
	if err != nil {
		span.SetError(err)
		return total, fmt.Errorf("cluster: export %s: %w", dir, err)
	}
	if sl.Empty() {
		return total, nil
	}
	parts := rt.partitionSlice(sl)
	owners := make([]string, 0, len(parts))
	for owner := range parts {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	var errs []error
	for _, owner := range owners {
		part := parts[owner]
		if owner == "" {
			errs = append(errs, fmt.Errorf("cluster: no owner for segments %s (empty ring?)",
				strings.Join(part.Segments(), ",")))
			continue
		}
		var stats api.SliceStats
		if err := rt.peerPostJSON(ctx, owner, api.RouteClusterSlice, part, &stats); err != nil {
			errs = append(errs, err)
			continue
		}
		total.Add(stats)
		if rt.log != nil {
			rt.log.Info("rebalanced slice",
				"source", source, "owner", owner,
				"patterns", stats.Patterns, "reports", stats.Reports,
				"labels", stats.Labels, "deduped", stats.Deduped)
		}
	}
	err = errors.Join(errs...)
	span.SetError(err)
	span.SetAttr("reports", total.Reports)
	return total, err
}
