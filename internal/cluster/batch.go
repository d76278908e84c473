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
	"math"
	"net/http"
	"sync"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/obs/trace"
)

// batchEntry is one client batch entry in router-internal form: its key and
// the bytes to forward — the original frame verbatim for binary input (so
// re-routes stay bit-identical), or the decoded entry for JSON input — or
// the reason it is answered without being forwarded.
type batchEntry struct {
	key     string
	raw     []byte          // binary input: the entry's frame, verbatim
	entry   *api.BatchEntry // JSON input: the decoded entry
	refused error           // JSON input: a key no frame can carry
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
	body, err := api.ReadBody(w, r, api.DefaultBatchMaxBodyBytes)
	if err != nil {
		api.WriteBodyError(w, err)
		return
	}
	// First pass: split by ring ownership. Groups write disjoint slices of
	// out, so no lock is needed around the merge.
	rg := rt.ring.Load()
	binary := api.IsFrameRequest(r)
	entries, groups, err := splitBatch(binary, body, rg)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if len(rg.Members()) == 0 {
		rt.stack.Shed(w, errors.New("no cluster members"), 0)
		return
	}
	out := make([]api.BatchEntryStatus, len(entries))
	for i, e := range entries {
		if e.refused != nil {
			out[i] = api.BatchEntryStatus{Key: e.key, Status: http.StatusBadRequest, Error: e.refused.Error()}
		}
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

// splitBatch parses a batch body in either codec into routable entries and
// groups their positions by the owner rg names for each entry's segment. A
// binary body is scanned, not decoded: an entry keeps its key and its raw
// frame, so forwards (and 421 re-forwards) carry the client's exact bytes.
// A JSON entry whose key is too long for a frame is refused, not grouped:
// no shard could log it, and the status frame a shard answers in could not
// carry its key back, so forwarding it would fail its whole sub-batch.
func splitBatch(binary bool, body []byte, rg *ring.Ring) ([]batchEntry, map[string][]int, error) {
	var entries []batchEntry
	groups := map[string][]int{}
	if binary {
		err := api.ScanReportFrames(body, func(key, segment, raw []byte) {
			owner := rg.Owner(string(segment))
			groups[owner] = append(groups[owner], len(entries))
			entries = append(entries, batchEntry{key: string(key), raw: raw})
		})
		if err != nil {
			return nil, nil, err
		}
		return entries, groups, nil
	}
	var req api.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	entries = make([]batchEntry, len(req.Entries))
	for i := range req.Entries {
		e := &req.Entries[i]
		entries[i] = batchEntry{key: e.Key, entry: e}
		if len(e.Key) > math.MaxUint16 {
			// The error the shard's store gives the entry.
			_, entries[i].refused = api.AppendReportPayload(nil, e.Key, e.Report)
			continue
		}
		owner := rg.Owner(e.Report.Segment)
		groups[owner] = append(groups[owner], i)
	}
	return entries, groups, nil
}

// forwardBatchGroups sends each owner's sub-batch concurrently and writes
// the per-entry verdicts into out at the entries' original positions.
func (rt *Router) forwardBatchGroups(ctx context.Context, binary bool, entries []batchEntry, groups map[string][]int, out []api.BatchEntryStatus) {
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			rt.sendSubBatch(ctx, owner, binary, entries, idxs, out)
		}(owner, idxs)
	}
	wg.Wait()
}

// sendSubBatch forwards one owner's share of a batch, the entries at idxs,
// and writes a verdict for each into out at its position. Transport failures
// and shape violations become per-entry statuses — the router's batch
// answer is always 200, so every failure mode has to land inside the vector.
func (rt *Router) sendSubBatch(ctx context.Context, owner string, binary bool, entries []batchEntry, idxs []int, out []api.BatchEntryStatus) {
	fail := func(status int, err error) {
		for _, i := range idxs {
			out[i] = api.BatchEntryStatus{Key: entries[i].key, Status: status, Error: err.Error()}
		}
	}
	if owner == "" {
		fail(http.StatusServiceUnavailable, errors.New("no cluster members"))
		return
	}
	var body []byte
	contentType := api.FrameContentType
	if binary {
		size := 0
		for _, i := range idxs {
			size += len(entries[i].raw)
		}
		body = make([]byte, 0, size)
		for _, i := range idxs {
			body = append(body, entries[i].raw...)
		}
	} else {
		contentType = "application/json"
		req := api.BatchRequest{Entries: make([]api.BatchEntry, len(idxs))}
		for j, i := range idxs {
			req.Entries[j] = *entries[i].entry
		}
		var err error
		if body, err = json.Marshal(req); err != nil {
			fail(http.StatusInternalServerError, err)
			return
		}
	}

	// Shards answer the status vector as a frame, whichever codec the
	// sub-batch is in; the client's preferred codec is applied to the merged
	// vector at the router's edge.
	respBody, err := rt.peerDo(ctx, owner, http.MethodPost, api.RouteReportsBatch, "", contentType, api.FrameContentType, body)
	if err != nil {
		// A whole-request shard rejection (shed, oversized, read-only)
		// applies to every entry it carried.
		status := http.StatusBadGateway
		if se := (*statusError)(nil); errors.As(err, &se) {
			status = se.status
		}
		fail(status, err)
		return
	}
	statuses, err := api.DecodeBatchStatusFrame(respBody)
	if err != nil {
		fail(http.StatusBadGateway, fmt.Errorf("shard %s: %w", owner, err))
		return
	}
	if len(statuses) != len(idxs) {
		fail(http.StatusBadGateway,
			fmt.Errorf("shard %s: %d statuses for %d entries", owner, len(statuses), len(idxs)))
		return
	}
	for j, i := range idxs {
		out[i] = statuses[j]
	}
}
