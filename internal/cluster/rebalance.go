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

// statusError is a shard's answer other than 200.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// peerDo sends one request to a shard and returns the body of its 200 answer;
// any other answer is a *statusError. An empty contentType or accept sends
// no such header.
func (rt *Router) peerDo(ctx context.Context, id, method, path, query, contentType, accept string, body []byte) ([]byte, error) {
	pc := rt.peer(id)
	if pc == nil {
		return nil, fmt.Errorf("cluster: shard %q is not a configured peer", id)
	}
	req, err := http.NewRequestWithContext(ctx, method, pc.endpoint(path, query), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := rt.send(pc, req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", id, err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxSliceBytes))
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{resp.StatusCode, fmt.Sprintf("shard %s: %s %s: status %d: %s",
			id, method, path, resp.StatusCode, strings.TrimSpace(string(respBody)))}
	}
	return respBody, nil
}

// peerPostJSON posts body to a shard and decodes the 200 response into out
// (out may be nil to discard it).
func (rt *Router) peerPostJSON(ctx context.Context, id, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := rt.peerDo(ctx, id, http.MethodPost, path, "", "application/json", "", payload)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(resp, out)
}

// applyMove posts a move — frames of move blocks, as a shard's export or
// server.ExportFromDir writes them — to the shard id and returns what it
// applied.
func (rt *Router) applyMove(ctx context.Context, id string, move []byte) (api.SliceStats, error) {
	var stats api.SliceStats
	resp, err := rt.peerDo(ctx, id, http.MethodPost, api.RouteClusterSlice, "", api.FrameContentType, "", move)
	if err == nil {
		err = json.Unmarshal(resp, &stats)
	}
	return stats, err
}

// RebalanceFromDir recovers a departed shard's data from its WAL directory:
// the full durable state is rebuilt offline (snapshot + segment replay, the
// same recovery path the shard itself would run), exported as a move, and
// each owner under the current ring is posted its segments' blocks.
// mergeRadius must match the departed shard's fusion radius; source is the
// departed shard's id, under which a receiver counts what it has applied, so
// a crashed rebalance re-run from the top lands nothing twice.
//
// The caller re-aggregates afterwards — moves carry raw reports, not fused
// derived state.
func (rt *Router) RebalanceFromDir(ctx context.Context, dir string, mergeRadius float64, source string) (api.SliceStats, error) {
	var total api.SliceStats
	ctx, span := trace.StartChild(ctx, "cluster.rebalance_from_dir")
	span.SetAttr("source", source)
	defer span.End()

	rg := rt.ring.Load()
	if len(rg.Members()) == 0 {
		err := errors.New("cluster: no members to rebalance onto")
		span.SetError(err)
		return total, err
	}
	parts, err := server.ExportFromDir(dir, mergeRadius, source, rg.Owner)
	if err != nil {
		span.SetError(err)
		return total, fmt.Errorf("cluster: export %s: %w", dir, err)
	}
	owners := make([]string, 0, len(parts))
	for owner := range parts {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	var errs []error
	for _, owner := range owners {
		stats, err := rt.applyMove(ctx, owner, parts[owner])
		total.Add(stats)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if rt.log != nil {
			rt.log.Info("rebalanced segments",
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
