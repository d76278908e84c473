package client

// Batch drains: DrainOutbox flushes a run of parked reports through POST
// /v1/reports/batch. Each parked report is the frame a batch carries, its
// idempotency key inside, so the request body is the parked bytes one after
// another. The answer's status vector is in request order, and each entry
// is settled from the status at its position with the same
// terminal-vs-transient rules as single uploads.

import (
	"context"
	"fmt"
	"net/http"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs/trace"
)

// drainBatchMax is the most parked reports one drain POST carries.
const drainBatchMax = 32

// drainBatch delivers a run of parked reports through the batch endpoint
// and settles each entry from the status at its position: accepted entries
// leave the queue as drained, terminal rejections leave it as dropped
// poison, transient rejections stay parked. An answer that is not one
// status per entry settles nothing. The returned error is nil when every
// surviving entry may batch again immediately, transient when the drain
// should pause, and terminal (non-transient) when the whole batch was
// rejected and the caller should fall back to single entries.
func (v *CrowdVehicle) drainBatch(ctx context.Context, run []Entry) (int, error) {
	var body []byte
	for _, e := range run {
		body = append(body, e.Body...)
	}
	dctx, span := trace.Resume(ctx, "client.drain "+api.RouteReportsBatch, run[0].Traceparent)
	span.SetAttr("entries", len(run))
	span.SetAttr("queued_for", v.Outbox.OldestAge().String())
	var raw []byte
	err := sendBody(dctx, v.Metrics, v.HTTP, http.MethodPost, v.BaseURL+api.RouteReportsBatch, api.FrameContentType, body, "", &raw)
	var results []api.BatchEntryStatus
	if err == nil {
		results, err = api.DecodeBatchStatusFrame(raw)
	}
	if err == nil && len(results) != len(run) {
		err = fmt.Errorf("client: %s answered %d statuses for %d entries", api.RouteReportsBatch, len(results), len(run))
	}
	span.SetError(err)
	span.End()
	if err != nil {
		return 0, err
	}

	settled := make(map[string]bool, len(run))
	drained, kept := 0, 0
	for i, st := range results {
		switch {
		case st.Ok():
			settled[run[i].Key] = true
			drained++
			v.Metrics.outboxDrained.Inc()
		case st.Status != 0 && !api.RetryableStatus(st.Status):
			settled[run[i].Key] = true
			v.Metrics.outboxDropped.Inc()
		default:
			// Transient rejection or no verdict: stays parked.
			kept++
		}
	}
	v.Outbox.remove(settled)
	if kept > 0 {
		// Some entries must wait; surface a transient error so the drain
		// loop pauses instead of hammering the same rejections.
		return drained, fmt.Errorf("client: %s: %d entries deferred by the server", api.RouteReportsBatch, kept)
	}
	return drained, nil
}
