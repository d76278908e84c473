package client

// Batch drains: DrainOutbox (with BatchSize > 1) flushes contiguous runs of
// parked reports through POST /v1/reports/batch. It speaks the binary frame
// codec on the wire — the batch endpoint exists to amortize round-trips, and
// frames amortize encoding — and classifies each entry from the response's
// per-entry status vector with the same terminal-vs-transient rules as
// single uploads.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs/trace"
)

// entryReport recovers the api.Report a parked entry carries, whatever
// codec it was parked in.
func entryReport(e Entry) (api.Report, error) {
	if e.ContentType == api.FrameContentType {
		frames, err := api.SplitReportFrames(e.Body)
		if err != nil {
			return api.Report{}, err
		}
		if len(frames) != 1 {
			return api.Report{}, fmt.Errorf("client: outbox entry holds %d frames, want 1", len(frames))
		}
		return frames[0].Report, nil
	}
	var rep api.Report
	if err := json.Unmarshal(e.Body, &rep); err != nil {
		return api.Report{}, err
	}
	return rep, nil
}

// drainBatch delivers a contiguous run of parked reports through the batch
// endpoint and settles each entry from the response's status vector:
// accepted entries leave the queue as drained, terminal rejections leave it
// as dropped poison, transient rejections stay parked. The returned error
// is nil when every surviving entry may batch again immediately, transient
// when the drain should pause, and terminal (non-transient) when the whole
// batch was rejected and the caller should fall back to single entries.
func (v *CrowdVehicle) drainBatch(ctx context.Context, run []Entry) (int, error) {
	var body []byte
	poison := map[string]bool{}
	live := run[:0]
	for _, e := range run {
		rep, err := entryReport(e)
		if err != nil {
			// An undecodable entry is client-side poison: drop it so the
			// queue advances.
			poison[e.Key] = true
			continue
		}
		if body, err = api.EncodeReportFrame(body, e.Key, rep); err != nil {
			poison[e.Key] = true
			continue
		}
		live = append(live, e)
	}
	for range poison {
		v.Metrics.incOutboxDropped()
	}
	v.Outbox.remove(poison)
	if len(live) == 0 {
		v.syncOutboxGauges()
		return 0, nil
	}

	dctx, span := trace.Resume(ctx, "client.drain "+api.RouteReportsBatch, live[0].Traceparent)
	span.SetAttr("entries", len(live))
	span.SetAttr("queued_for", v.Outbox.OldestAge().String())
	var resp api.BatchResponse
	err := sendBody(dctx, v.Metrics, v.HTTP, http.MethodPost, v.BaseURL+api.RouteReportsBatch, api.FrameContentType, body, "", &resp)
	span.SetError(err)
	span.End()
	if err != nil {
		v.syncOutboxGauges()
		return 0, err
	}

	byKey := make(map[string]int, len(resp.Results))
	for _, st := range resp.Results {
		byKey[st.Key] = st.Status
	}
	settled := map[string]bool{}
	drained, kept := 0, 0
	for _, e := range live {
		st := byKey[e.Key]
		switch {
		case st >= 200 && st < 300:
			settled[e.Key] = true
			drained++
			v.Metrics.incOutboxDrained()
		case st != 0 && !api.RetryableStatus(st):
			settled[e.Key] = true
			v.Metrics.incOutboxDropped()
		default:
			// Transient rejection or missing verdict: stays parked.
			kept++
		}
	}
	v.Outbox.remove(settled)
	v.syncOutboxGauges()
	if kept > 0 {
		// Some entries must wait; surface a transient error so the drain
		// loop pauses instead of hammering the same rejections.
		return drained, fmt.Errorf("client: %s: %d entries deferred by the server", api.RouteReportsBatch, kept)
	}
	return drained, nil
}
