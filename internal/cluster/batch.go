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
	"errors"
	"fmt"
	"net/http"
	"sync"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/obs/trace"
)

// batchEntry is one client batch entry in router-internal form: its key and
// its frame, verbatim, so forwards and re-routes stay bit-identical.
type batchEntry struct {
	key string
	raw []byte
}

// handleBatch serves POST /v1/reports/batch: scan the frames, split by ring
// ownership, forward sub-batches concurrently, merge status vectors
// positionally, then re-route 421 entries once to the owner each shard
// names. A body that is not frames answers 415, like a shard's, and the
// answer is a status frame.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	if !api.RequireFrames(w, r, "a batch") {
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
	entries, groups, err := splitBatch(body, rg)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if len(rg.Members()) == 0 {
		rt.stack.Shed(w, errors.New("no cluster members"), 0)
		return
	}
	out := make([]api.BatchEntryStatus, len(entries))
	rt.forwardBatchGroups(r.Context(), entries, groups, out)

	// Second pass: a 421 names the owner the shard's ring prefers —
	// mid-rebalance disagreement. Re-route those entries once, grouped by
	// the named owner; a second 421 goes back to the client, whose retry
	// layer returns after membership settles.
	reroute := map[string][]int{}
	for i, st := range out {
		if st.Status == http.StatusMisdirectedRequest && st.Owner != "" {
			if rt.peers[st.Owner] != nil {
				reroute[st.Owner] = append(reroute[st.Owner], i)
			}
		}
	}
	if len(reroute) > 0 {
		for range reroute {
			rt.metrics.rerouted.Inc()
		}
		rt.log.Warn("batch entries re-routed after 421", "groups", len(reroute))
		rt.forwardBatchGroups(r.Context(), entries, reroute, out)
	}

	trace.FromContext(r.Context()).SetAttr("entries", len(entries))
	frame, err := api.EncodeBatchStatusFrame(out)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", api.FrameContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}

// splitBatch scans a batch body into routable entries and groups their
// positions by the owner rg names for each entry's segment. The body is
// scanned, not decoded: an entry keeps its key and its raw frame, so
// forwards (and 421 re-forwards) carry the client's exact bytes.
func splitBatch(body []byte, rg *ring.Ring) ([]batchEntry, map[string][]int, error) {
	var entries []batchEntry
	groups := map[string][]int{}
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

// forwardBatchGroups sends each owner's sub-batch concurrently and writes
// the per-entry verdicts into out at the entries' original positions.
func (rt *Router) forwardBatchGroups(ctx context.Context, entries []batchEntry, groups map[string][]int, out []api.BatchEntryStatus) {
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			rt.sendSubBatch(ctx, owner, entries, idxs, out)
		}(owner, idxs)
	}
	wg.Wait()
}

// sendSubBatch forwards one owner's share of a batch, the entries at idxs,
// and writes a verdict for each into out at its position. Transport failures
// and shape violations become per-entry statuses — the router's batch
// answer is always 200, so every failure mode has to land inside the vector.
func (rt *Router) sendSubBatch(ctx context.Context, owner string, entries []batchEntry, idxs []int, out []api.BatchEntryStatus) {
	fail := func(status int, err error) {
		for _, i := range idxs {
			out[i] = api.BatchEntryStatus{Key: entries[i].key, Status: status, Error: err.Error()}
		}
	}
	if owner == "" {
		fail(http.StatusServiceUnavailable, errors.New("no cluster members"))
		return
	}
	size := 0
	for _, i := range idxs {
		size += len(entries[i].raw)
	}
	body := make([]byte, 0, size)
	for _, i := range idxs {
		body = append(body, entries[i].raw...)
	}
	respBody, err := rt.peerDo(ctx, owner, http.MethodPost, api.RouteReportsBatch, "", api.FrameContentType, api.FrameContentType, body)
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
