package cluster

// Batch routing: POST /v1/reports/batch at the router splits one client
// batch into per-owner sub-batches along ring ownership, forwards them
// concurrently, and merges the shards' per-entry status vectors back into
// the client's original order. The response is always 200 with one status
// per entry — partial failure is per entry, never per request — exactly the
// contract a single crowd-server offers, so a client cannot tell whether
// its batch crossed one shard or five.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs/trace"
)

// batchEntry is one client batch entry in router-internal form: its
// position in the client's request, its routing segment, and the bytes to
// forward — the original frame verbatim for binary input (so re-routes stay
// bit-identical), or the decoded entry for JSON input.
type batchEntry struct {
	key     string
	segment string
	raw     []byte         // binary input: the entry's frame, verbatim
	entry   api.BatchEntry // JSON input: the decoded entry
}

// handleBatch serves POST /v1/reports/batch: decode (either codec), split
// by ring ownership, forward sub-batches concurrently, merge status vectors
// positionally, then re-route 421 entries once to the owner each shard
// names. The answer honors the client's Accept header, like the shards do.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.batchMaxBody))
	if err != nil {
		api.WriteBodyError(w, err)
		return
	}
	binary := api.IsFrameRequest(r)
	entries, err := decodeBatchEntries(binary, body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}

	out := make([]api.BatchEntryStatus, len(entries))
	rg := rt.ring.Load()
	if len(rg.Members()) == 0 {
		rt.stack.Shed(w, errors.New("no cluster members"), 0)
		return
	}

	// First pass: split by ring ownership. Groups write disjoint slices of
	// out, so no lock is needed around the merge.
	groups := map[string][]int{}
	for i, e := range entries {
		owner := rg.Owner(e.segment)
		groups[owner] = append(groups[owner], i)
	}
	rt.forwardBatchGroups(r.Context(), binary, entries, groups, out)

	// Second pass: a 421 names the owner the shard's ring prefers —
	// mid-rebalance disagreement. Re-route those entries once, grouped by
	// the named owner; a second 421 goes back to the client, whose retry
	// layer returns after membership settles.
	reroute := map[string][]int{}
	for i, st := range out {
		if st.Status == http.StatusMisdirectedRequest && st.Owner != "" {
			if rt.peer(st.Owner) != nil {
				reroute[st.Owner] = append(reroute[st.Owner], i)
			}
		}
	}
	if len(reroute) > 0 {
		for range reroute {
			rt.metrics.incRerouted()
		}
		if rt.log != nil {
			rt.log.Warn("batch entries re-routed after 421", "groups", len(reroute))
		}
		rt.forwardBatchGroups(r.Context(), binary, entries, reroute, out)
	}

	trace.FromContext(r.Context()).SetAttr("entries", len(entries))
	if api.WantsFrame(r.Header.Get("Accept")) {
		frame, err := api.EncodeBatchStatusFrame(out)
		if err != nil {
			api.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", api.FrameContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(frame)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.BatchResponse{Results: out})
}

// decodeBatchEntries parses a batch body in either codec into routable
// entries. Binary entries keep their raw frame bytes so forwards (and 421
// re-forwards) carry the client's exact bytes.
func decodeBatchEntries(binary bool, body []byte) ([]batchEntry, error) {
	if binary {
		frames, err := api.SplitReportFrames(body)
		if err != nil {
			return nil, err
		}
		entries := make([]batchEntry, len(frames))
		for i, f := range frames {
			entries[i] = batchEntry{key: f.Key, segment: f.Report.Segment, raw: f.Raw}
		}
		return entries, nil
	}
	var req api.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	entries := make([]batchEntry, len(req.Entries))
	for i, e := range req.Entries {
		entries[i] = batchEntry{key: e.Key, segment: e.Report.Segment, entry: e}
	}
	return entries, nil
}

// forwardBatchGroups sends each owner's sub-batch concurrently and writes
// the per-entry verdicts into out at the entries' original positions.
func (rt *Router) forwardBatchGroups(ctx context.Context, binary bool, entries []batchEntry, groups map[string][]int, out []api.BatchEntryStatus) {
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			sub := make([]batchEntry, len(idxs))
			for j, idx := range idxs {
				sub[j] = entries[idx]
			}
			statuses := rt.sendSubBatch(ctx, owner, binary, sub)
			for j, idx := range idxs {
				out[idx] = statuses[j]
			}
		}(owner, idxs)
	}
	wg.Wait()
}

// sendSubBatch forwards one owner's share of a batch and returns a verdict
// per entry, positionally aligned with sub. Transport failures and shape
// violations become per-entry statuses — the router's batch answer is
// always 200, so every failure mode has to land inside the vector.
func (rt *Router) sendSubBatch(ctx context.Context, owner string, binary bool, sub []batchEntry) []api.BatchEntryStatus {
	fail := func(status int, err error) []api.BatchEntryStatus {
		statuses := make([]api.BatchEntryStatus, len(sub))
		for i, e := range sub {
			statuses[i] = api.BatchEntryStatus{Key: e.key, Status: status, Error: err.Error()}
		}
		return statuses
	}
	if owner == "" {
		return fail(http.StatusServiceUnavailable, errors.New("no cluster members"))
	}
	var body []byte
	contentType := api.FrameContentType
	if binary {
		for _, e := range sub {
			body = append(body, e.raw...)
		}
	} else {
		contentType = "application/json"
		req := api.BatchRequest{Entries: make([]api.BatchEntry, len(sub))}
		for i, e := range sub {
			req.Entries[i] = e.entry
		}
		var err error
		if body, err = json.Marshal(req); err != nil {
			return fail(http.StatusInternalServerError, err)
		}
	}

	// The router always merges in the JSON domain, which a shard answers in
	// unless asked otherwise; the client's preferred codec is re-applied to
	// the merged vector at the router's edge.
	respBody, err := rt.peerDo(ctx, owner, http.MethodPost, api.RouteReportsBatch, "", contentType, body)
	if err != nil {
		// A whole-request shard rejection (shed, oversized, read-only)
		// applies to every entry it carried.
		status := http.StatusBadGateway
		if se := (*statusError)(nil); errors.As(err, &se) {
			status = se.status
		}
		return fail(status, err)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(respBody, &br); err != nil {
		return fail(http.StatusBadGateway, fmt.Errorf("shard %s: %w", owner, err))
	}
	if len(br.Results) != len(sub) {
		return fail(http.StatusBadGateway,
			fmt.Errorf("shard %s: %d statuses for %d entries", owner, len(br.Results), len(sub)))
	}
	return br.Results
}
