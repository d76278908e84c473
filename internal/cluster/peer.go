package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"crowdwifi/internal/api"
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

// applyMove posts a move — frames of move blocks, as a shard's export
// writes them — to the shard id and returns what it applied. Reconcile posts
// each move it pulls from a non-owner this way. A dead shard's data is
// exported from its directory offline (server.ExportFromDir), by a process
// that links the store; the router never does, and each part is posted to
// its owner exactly like a move.
func (rt *Router) applyMove(ctx context.Context, id string, move []byte) (api.SliceStats, error) {
	var stats api.SliceStats
	resp, err := rt.peerDo(ctx, id, http.MethodPost, api.RouteClusterSlice, "", api.FrameContentType, "", move)
	if err == nil {
		err = json.Unmarshal(resp, &stats)
	}
	return stats, err
}
