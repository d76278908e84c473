// Package client implements the vehicle-side CrowdWiFi middleware: the
// crowd-vehicle client that runs online compressive sensing while driving,
// labels mapping tasks, and uploads reports; and the user-vehicle client
// that downloads fused AP lookup results in advance of entering a road
// segment (Section 3's three crowdsensing parties, minus the server).
//
// The network the paper describes (Section 6.3) is short, lossy roadside
// contact windows, so every request is context-aware and every upload is
// built to survive failure: callers plug a retrying transport (see
// internal/retry) into the HTTP field, uploads carry idempotency keys so the
// server can deduplicate replays, and an optional store-and-forward Outbox
// queues reports and labels while the server is unreachable and drains them
// on the next contact window.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cs"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/radio"
)

// HTTPDoer abstracts *http.Client for testing and for wrapping with
// internal/retry or internal/chaos.
type HTTPDoer interface {
	Do(req *http.Request) (*http.Response, error)
}

const jsonContentType = "application/json"

// ErrQueued marks an upload that could not be delivered and was parked in
// the vehicle's Outbox instead; it will be re-sent by DrainOutbox on the
// next contact window. Check with errors.Is.
var ErrQueued = errors.New("client: upload queued to outbox")

// StatusError is a non-2xx response from the crowd-server.
type StatusError struct {
	Method string
	Path   string
	Status int
	Body   string
	// RetryAfter is the server's Retry-After hint (zero when absent): on a
	// 503 it says when to come back — after a full family's queue deadline,
	// or after the disk-recovery horizon of a read-only server.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: %s %s: status %d: %s", e.Method, e.Path, e.Status, e.Body)
}

// RetryAfterHint extracts the server's Retry-After from an upload or drain
// error (zero when err carries none). Callers pacing their own retry loops
// — outbox drains between contact windows — should wait at least this long.
func RetryAfterHint(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// transientError reports whether err is worth queueing for a later contact
// window: transport failures, timeouts, cancellations (the vehicle driving
// out of range mid-upload), and the statuses the retry doer retries
// (api.RetryableStatus). Definitive 4xx rejections are not transient —
// replaying them can never succeed.
func transientError(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return api.RetryableStatus(se.Status)
	}
	return true
}

// CrowdVehicle is the worker party: it senses APs with the online CS engine
// and participates in offline crowdsourcing.
type CrowdVehicle struct {
	// ID identifies the vehicle to the crowd-server.
	ID string
	// BaseURL is the crowd-server address, e.g. "http://127.0.0.1:8700".
	BaseURL string
	// HTTP is the transport (default http.DefaultClient). Wrap it with
	// retry.NewDoer for backoff, budget, and circuit breaking.
	HTTP HTTPDoer
	// Metrics, when non-nil, records request latency, outcomes, and outbox
	// activity.
	Metrics *Metrics
	// Outbox, when non-nil, queues reports and labels that could not be
	// uploaded; ErrQueued marks affected calls.
	Outbox *Outbox
	// BatchSize > 1 lets DrainOutbox deliver contiguous runs of parked
	// reports through POST /v1/reports/batch, up to BatchSize per
	// round-trip, instead of one request per entry.
	BatchSize int

	engine *cs.Engine

	keyOnce sync.Once
	keySalt string
	keySeq  atomic.Uint64
}

// NewCrowdVehicle builds a crowd-vehicle with a fresh online CS engine.
func NewCrowdVehicle(id, baseURL string, engineCfg cs.EngineConfig) (*CrowdVehicle, error) {
	eng, err := cs.NewEngine(engineCfg)
	if err != nil {
		return nil, err
	}
	return &CrowdVehicle{ID: id, BaseURL: baseURL, HTTP: http.DefaultClient, engine: eng}, nil
}

// Sense ingests drive-by measurements into the online CS engine: with a
// tracer attached to ctx, each sensing window becomes a client.sense root
// span with the triggered cs.round spans as children.
func (v *CrowdVehicle) Sense(ctx context.Context, ms []radio.Measurement) error {
	ctx, span := trace.Start(ctx, "client.sense")
	defer span.End()
	span.SetAttr("measurements", len(ms))
	rounds, err := v.engine.AddBatchContext(ctx, ms)
	span.SetAttr("rounds", len(rounds))
	span.SetError(err)
	return err
}

// Estimates returns the vehicle's current consolidated AP estimates after
// the final pruning pass.
func (v *CrowdVehicle) Estimates() []cs.Estimate {
	return v.engine.FinalEstimates()
}

// nextIdempotencyKey mints a key unique across vehicles and process
// restarts: vehicle id, a random per-process salt, and a sequence number.
func (v *CrowdVehicle) nextIdempotencyKey() string {
	v.keyOnce.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Last resort: a clock-derived salt still separates restarts.
			v.keySalt = fmt.Sprintf("t%x", time.Now().UnixNano())
			return
		}
		v.keySalt = hex.EncodeToString(b[:])
	})
	return fmt.Sprintf("%s-%s-%d", v.ID, v.keySalt, v.keySeq.Add(1))
}

// Report uploads the vehicle's AP estimates for a segment. With an Outbox
// attached, delivery failures park the report locally and return ErrQueued.
func (v *CrowdVehicle) Report(ctx context.Context, segment string) error {
	ests := v.Estimates()
	rep := api.Report{Vehicle: v.ID, Segment: segment, APs: make([]api.APReport, len(ests))}
	for i, e := range ests {
		rep.APs[i] = api.APReport{X: e.Pos.X, Y: e.Pos.Y, Credit: e.Credit}
	}
	return v.UploadReport(ctx, rep)
}

// UploadReport uploads a prebuilt report, as one binary report frame,
// through the full resilience path (idempotency key, retrying transport,
// outbox park on transient failure). It never touches the CS engine, so
// fleet tests and replay tools can drive CrowdVehicles constructed without
// one.
func (v *CrowdVehicle) UploadReport(ctx context.Context, rep api.Report) error {
	buf, err := api.EncodeReportFrame(nil, "", rep)
	if err != nil {
		return err
	}
	// The idempotency key travels in the header; the frame's embedded key
	// slot is for batch entries.
	return v.postBody(ctx, api.RouteReports, api.FrameContentType, buf, nil, true)
}

// ProposePattern registers the vehicle's estimates as a mapping task so
// other vehicles can confirm or reject them. It returns the task id.
// Proposals are not queueable — the caller needs the assigned id — but they
// do carry an idempotency key, so a retried proposal returns the original id
// instead of registering a duplicate task.
func (v *CrowdVehicle) ProposePattern(ctx context.Context, segment string) (int, error) {
	ests := v.Estimates()
	p := api.Pattern{Segment: segment, APs: make([]api.APReport, len(ests))}
	for i, e := range ests {
		p.APs[i] = api.APReport{X: e.Pos.X, Y: e.Pos.Y, Credit: e.Credit}
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := v.postJSON(ctx, api.RoutePatterns, p, &out, false); err != nil {
		return 0, err
	}
	return out.ID, nil
}

// PullTasks fetches up to count mapping tasks assigned to this vehicle.
func (v *CrowdVehicle) PullTasks(ctx context.Context, count int) ([]api.Pattern, error) {
	u := fmt.Sprintf("%s%s?vehicle=%s&count=%d", v.BaseURL, api.RouteTasks, url.QueryEscape(v.ID), count)
	var out []api.Pattern
	if err := get(ctx, v.Metrics, v.HTTP, u, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// LabelTasks answers mapping tasks against the vehicle's own estimates: a
// pattern is confirmed (+1) when every pattern AP lies within
// tolerance of one of the vehicle's estimates and the counts agree within
// one; otherwise rejected (−1). It returns the submitted labels; with an
// Outbox attached, delivery failures park the batch and return the labels
// alongside ErrQueued.
func (v *CrowdVehicle) LabelTasks(ctx context.Context, tasks []api.Pattern, tolerance float64) ([]api.Label, error) {
	if tolerance <= 0 {
		tolerance = 15
	}
	own := v.Estimates()
	labels := make([]api.Label, 0, len(tasks))
	for _, task := range tasks {
		labels = append(labels, api.Label{
			Vehicle: v.ID,
			TaskID:  task.ID,
			Value:   matchPattern(task, own, tolerance),
		})
	}
	if len(labels) == 0 {
		return nil, nil
	}
	if err := v.postJSON(ctx, api.RouteLabels, labels, nil, true); err != nil {
		return labels, err
	}
	return labels, nil
}

// matchPattern decides whether a pattern agrees with the vehicle's own AP
// estimates.
func matchPattern(task api.Pattern, own []cs.Estimate, tolerance float64) int {
	if len(own) == 0 {
		return -1
	}
	matched := 0
	for _, ap := range task.APs {
		p := geo.Point{X: ap.X, Y: ap.Y}
		for _, e := range own {
			if e.Pos.Dist(p) <= tolerance {
				matched++
				break
			}
		}
	}
	countDiff := len(task.APs) - len(own)
	if countDiff < 0 {
		countDiff = -countDiff
	}
	if matched == len(task.APs) && countDiff <= 1 {
		return 1
	}
	return -1
}

// SubmitLabels posts raw labels (used by spammer simulations that bypass
// LabelTasks); with an Outbox attached, delivery failures park the batch and
// return ErrQueued.
func (v *CrowdVehicle) SubmitLabels(ctx context.Context, labels []api.Label) error {
	return v.postJSON(ctx, api.RouteLabels, labels, nil, true)
}

// DrainOutbox re-sends queued uploads in FIFO order until the outbox is
// empty, an entry fails with a transient error (it stays queued and drain
// stops), or ctx ends. Entries rejected permanently by the server (4xx —
// poison pills that would otherwise block the FIFO head forever) are
// dropped and counted (crowdwifi_client_outbox_dropped_total
// {reason="terminal"}). With BatchSize > 1, contiguous runs of parked
// reports are delivered through POST /v1/reports/batch and classified entry
// by entry from the response's status vector. Returns the number delivered.
func (v *CrowdVehicle) DrainOutbox(ctx context.Context) (int, error) {
	if v.Outbox == nil {
		return 0, nil
	}
	drained := 0
	batchFellBack := false
	for {
		if err := ctx.Err(); err != nil {
			return drained, err
		}
		e, ok := v.Outbox.peek()
		if !ok {
			return drained, nil
		}
		if v.BatchSize > 1 && e.Path == api.RouteReports && !batchFellBack {
			if run := v.Outbox.peekRun(api.RouteReports, v.BatchSize); len(run) > 1 {
				n, err := v.drainBatch(ctx, run)
				drained += n
				if err == nil {
					continue
				}
				if transientError(err) {
					v.syncOutboxGauges()
					return drained, err
				}
				// The whole batch was rejected terminally (e.g. combined
				// body over the batch limit) even though individual entries
				// may be deliverable: fall back to one-at-a-time for the
				// next entry so nothing is dropped on the batch's account.
				batchFellBack = true
				continue
			}
		}
		batchFellBack = false
		// Rejoin the originating upload's trace: the drain attempt appears
		// as a late fragment of the same trace, not a disconnected one.
		dctx, span := trace.Resume(ctx, "client.drain "+e.Path, e.Traceparent)
		span.SetAttr("idempotency_key", e.Key)
		span.SetAttr("queued_for", v.Outbox.OldestAge().String())
		ct := e.ContentType
		if ct == "" {
			ct = jsonContentType
		}
		err := sendBody(dctx, v.Metrics, v.HTTP, http.MethodPost, v.BaseURL+e.Path, ct, e.Body, e.Key, nil)
		span.SetError(err)
		span.End()
		if err != nil && transientError(err) {
			v.syncOutboxGauges()
			return drained, err
		}
		v.Outbox.dropHead(e.Key)
		if err == nil {
			drained++
			v.Metrics.incOutboxDrained()
		} else {
			v.Metrics.incOutboxDropped()
		}
		v.syncOutboxGauges()
	}
}

// syncOutboxGauges mirrors outbox depth into the metrics gauge.
func (v *CrowdVehicle) syncOutboxGauges() {
	if v.Outbox == nil {
		return
	}
	v.Metrics.setOutbox(v.Outbox.Len())
}

// UserVehicle is the consumer party: it downloads fused lookup results.
type UserVehicle struct {
	// BaseURL is the crowd-server address.
	BaseURL string
	// HTTP is the transport (default http.DefaultClient).
	HTTP HTTPDoer
	// Metrics, when non-nil, records request latency and outcomes.
	Metrics *Metrics
}

// NewUserVehicle builds a user-vehicle client.
func NewUserVehicle(baseURL string) *UserVehicle {
	return &UserVehicle{BaseURL: baseURL, HTTP: http.DefaultClient}
}

// Lookup downloads the fused APs inside the given area, as a binary lookup
// frame.
func (u *UserVehicle) Lookup(ctx context.Context, area geo.Rect) ([]geo.Point, error) {
	var frame []byte
	if err := get(ctx, u.Metrics, u.HTTP, u.BaseURL+api.RouteLookup+"?"+api.LookupQuery(area), &frame); err != nil {
		return nil, err
	}
	raw, err := api.DecodeLookupFrame(frame)
	if err != nil {
		return nil, err
	}
	out := make([]geo.Point, len(raw))
	for i, r := range raw {
		out[i] = geo.Point{X: r.X, Y: r.Y}
	}
	return out, nil
}

// Aggregate asks the server to run the offline crowdsourcing pipeline (an
// operator action in production; exposed here for orchestration). A nil h
// selects http.DefaultClient.
func Aggregate(ctx context.Context, h HTTPDoer, baseURL string) (int, error) {
	var out struct {
		FusedAPs int `json:"fusedAPs"`
	}
	if err := sendBody(ctx, nil, h, http.MethodPost, baseURL+api.RouteAggregate, "", nil, "", &out); err != nil {
		return 0, err
	}
	return out.FusedAPs, nil
}

// Reliability fetches the server's per-vehicle reliability map. A nil h
// selects http.DefaultClient.
func Reliability(ctx context.Context, h HTTPDoer, baseURL string) (map[string]float64, error) {
	var out map[string]float64
	if err := get(ctx, nil, h, baseURL+api.RouteReliability, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// postJSON marshals body, stamps an idempotency key, and posts it. When the
// upload is queueable, an attached Outbox absorbs transient failures: the
// payload is parked (with the same key, so the eventual replay deduplicates
// server-side) and the call returns ErrQueued.
func (v *CrowdVehicle) postJSON(ctx context.Context, path string, body, out any, queueable bool) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return v.postBody(ctx, path, jsonContentType, buf, out, queueable)
}

// postBody stamps an idempotency key and posts a pre-encoded body of the
// given content type; out (if non-nil) receives the decoded JSON response.
func (v *CrowdVehicle) postBody(ctx context.Context, path, contentType string, buf []byte, out any, queueable bool) error {
	key := v.nextIdempotencyKey()

	// One logical upload = one trace. The root span covers every retry
	// attempt, and its traceparent rides along into the outbox so a later
	// drain joins the same trace instead of starting a fresh one.
	ctx, span := trace.Start(ctx, "client.upload "+path)
	defer span.End()
	span.SetAttr("idempotency_key", key)
	span.SetAttr("bytes", len(buf))

	err := sendBody(ctx, v.Metrics, v.HTTP, http.MethodPost, v.BaseURL+path, contentType, buf, key, out)
	if err != nil && queueable && v.Outbox != nil && transientError(err) {
		v.Outbox.enqueue(Entry{Path: path, Body: buf, Key: key, ContentType: contentType, Traceparent: span.Traceparent()})
		v.Metrics.incOutboxEnqueued()
		v.syncOutboxGauges()
		span.AddEvent("queued to outbox")
		return fmt.Errorf("%w: %s (cause: %v)", ErrQueued, path, err)
	}
	span.SetError(err)
	return err
}

// sendBody is the single request path shared by every client call: it
// builds the request (with a rewindable body so retrying transports can
// replay it), stamps the idempotency key, meters the round trip — the
// client-observed capture point, covering every retry attempt inside a
// retrying transport — and decodes the response into out: nil discards it, a
// *[]byte negotiates the binary codec via Accept and receives the raw body,
// anything else is decoded as JSON. Non-2xx responses become StatusErrors. A
// nil h selects http.DefaultClient.
func sendBody(ctx context.Context, m *Metrics, h HTTPDoer, method, url, contentType string, body []byte, key string, out any) error {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	// Child-only: a plain GET outside any traced operation stays silent
	// instead of minting a root trace per poll.
	ctx, span := trace.StartChild(ctx, "client."+method+" "+pathOf(url))
	defer span.End()

	req, err := http.NewRequestWithContext(ctx, method, url, reader)
	if err != nil {
		span.SetError(err)
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if key != "" {
		req.Header.Set(api.IdempotencyKeyHeader, key)
	}
	raw, _ := out.(*[]byte)
	if raw != nil {
		req.Header.Set("Accept", api.FrameContentType)
	}
	if h == nil {
		h = http.DefaultClient
	}
	start := time.Now()
	err = func() error {
		resp, err := h.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode >= 300:
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return &StatusError{
				Method:     req.Method,
				Path:       req.URL.Path,
				Status:     resp.StatusCode,
				Body:       string(b),
				RetryAfter: api.RetryAfter(resp.Header),
			}
		case out == nil:
			_, err = io.Copy(io.Discard, resp.Body)
		case raw != nil:
			*raw, err = io.ReadAll(resp.Body)
		default:
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		return err
	}()
	m.observe(req.URL.Path, start, err)
	span.SetError(err)
	return err
}

// pathOf trims scheme/host/query from a request URL for span names.
func pathOf(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return rawURL
	}
	return u.Path
}

func get(ctx context.Context, m *Metrics, h HTTPDoer, url string, out any) error {
	return sendBody(ctx, m, h, http.MethodGet, url, "", nil, "", out)
}
