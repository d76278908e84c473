// Package api is the protocol, everything two processes have to agree on,
// once: the entity and batch types, the binary frame codec (wire.go), the
// routes, the shard↔router control messages (cluster.go), the header names,
// the error-body and 503 shapes with their parser, the body caps and the 413
// answer, the retryable-status set, and the /v1/lookup query grammar and
// result order. Every client and both serving tiers import it, so it imports
// none of them, only geo and the wal frame envelope; what only a serving tier
// needs is in api/front. A client talking to the router must observe the
// bytes it would observe talking to a shard; that holds because both tiers
// call this code, not because two copies happen to match.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"crowdwifi/internal/geo"
)

// RetryAfterMsHeader carries the shed hint at millisecond precision. The
// standard Retry-After header only speaks whole seconds, so a 40ms backlog
// estimate would round up to 1s and idle a fleet client 25× longer than the
// queue needs; fleet clients prefer this header when present and third-party
// clients still get a conservative whole-second Retry-After.
const RetryAfterMsHeader = "X-Crowdwifi-Retry-After-Ms"

// ModeHeader carries the server's degradation mode on every response when
// overload control is enabled, so a client can distinguish "over capacity,
// retry soon" from "read-only disk fault, retry later" without parsing the
// body — and a fleet (or the cluster router) can track shard health
// passively from the traffic it already sends.
const ModeHeader = "X-Crowdwifi-Mode"

// IdempotencyKeyHeader carries the client's per-upload deduplication key.
const IdempotencyKeyHeader = "Idempotency-Key"

// OwnerHeader names the shard that owns a request's segment. Set on 421
// Misdirected Request responses so the caller can re-route without
// re-deriving the ring, and on slice-apply responses for observability.
const OwnerHeader = "X-Crowdwifi-Owner"

// ShardHeader names the shard that actually served a router-proxied upload
// (the post-re-route owner), so a slow or failed request is attributable to
// its shard from the response alone.
const ShardHeader = "X-Crowdwifi-Shard"

const (
	// DefaultMaxBodyBytes caps ingestion request bodies, at the router too:
	// it rejects oversized uploads before burning upstream bandwidth on them.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultBatchMaxBodyBytes caps /v1/reports/batch request bodies. Batch
	// uploads carry hundreds of parked reports in one round-trip, so the
	// single-upload cap would reject exactly the drains the endpoint exists
	// for; the batch limit is per-route and independently configurable.
	DefaultBatchMaxBodyBytes = 16 << 20
)

const (
	// MinRetryAfter floors every 503's standard Retry-After header: callers
	// supply a hint (the admission shed constant, the recovery probe
	// horizon) and this is the minimum a client reading only the
	// whole-second header is told to wait.
	MinRetryAfter = time.Second
	// MaxRetryAfter caps how long a server-sent hint can make a client
	// sleep, so a misbehaving (or clock-skewed) server cannot park a vehicle
	// forever.
	MaxRetryAfter = 30 * time.Second
)

// WriteJSON answers with status and v encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and the {"error":…} body every non-2xx
// answer of either tier carries.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// ReadBody reads a request body whole, at most limit bytes, in one
// allocation sized from its declared Content-Length. The declaration is
// trusted only up to the limit: a declared length over it fails at once, with
// nothing read or allocated, as an *http.MaxBytesError. A body that ends
// before its declared length fails with io.ErrUnexpectedEOF; one of unknown
// length is read as it arrives. WriteBodyError maps each failure to its
// answer.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	n := r.ContentLength
	if n > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	if n <= 0 {
		return io.ReadAll(body)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(body, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// WriteBodyError answers a failed request-body read or decode: 413 naming
// the limit when an http.MaxBytesReader cap was hit, 400 otherwise. It
// reports whether the cap was the cause.
func WriteBodyError(w http.ResponseWriter, err error) (capped bool) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds %d bytes", tooLarge.Limit))
		return true
	}
	WriteError(w, http.StatusBadRequest, err)
	return false
}

// WriteShed writes a 503 steering well-behaved clients (whose retry layer
// honors the headers) away from a busy window. The estimate goes out twice:
// verbatim at millisecond precision for fleet clients, and floored at
// MinRetryAfter, rounded up to whole seconds, in the standard header (its
// unit).
func WriteShed(w http.ResponseWriter, reason error, retryAfter time.Duration) {
	if ms := retryAfter.Milliseconds(); ms > 0 {
		w.Header().Set(RetryAfterMsHeader, strconv.FormatInt(ms, 10))
	}
	if retryAfter < MinRetryAfter {
		retryAfter = MinRetryAfter
	}
	secs := int((retryAfter + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusServiceUnavailable, reason)
}

// RetryAfter parses the backoff hint WriteShed sends, capped at
// MaxRetryAfter: the millisecond header when present, else the standard
// Retry-After in delay-seconds form. 0 means absent or unparseable (the
// HTTP-date form is not supported; neither tier emits it).
func RetryAfter(h http.Header) time.Duration {
	// The count is clamped before it is scaled: time.Duration(n) * unit
	// overflows to a negative wait for an n the peer is free to send.
	if ms, err := strconv.Atoi(h.Get(RetryAfterMsHeader)); err == nil && ms > 0 {
		return time.Duration(min(ms, int(MaxRetryAfter/time.Millisecond))) * time.Millisecond
	}
	if secs, err := strconv.Atoi(h.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(min(secs, int(MaxRetryAfter/time.Second))) * time.Second
	}
	return 0
}

// RetryableStatus reports whether a later attempt at the same request may
// succeed: 408, 429 and the transient 5xx family. The vehicle outbox parks
// them all; the retry doer retries them all but a shed, a 503 or 429 that
// carries Retry-After, which is the server's answer and goes back to the
// caller at once. Everything else is terminal.
func RetryableStatus(code int) bool {
	switch code {
	case http.StatusRequestTimeout, http.StatusTooManyRequests,
		http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// DrainClose releases a response that will not be returned to the caller, so
// its connection can be reused.
func DrainClose(resp *http.Response) {
	if resp == nil {
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}

// APReport is one AP estimate inside a vehicle report.
type APReport struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Credit float64 `json:"credit"`
}

// Report is a crowd-vehicle's upload for one road segment.
type Report struct {
	Vehicle string     `json:"vehicle"`
	Segment string     `json:"segment"`
	APs     []APReport `json:"aps"`
}

// Pattern is a candidate AP distribution pattern (a mapping task): a set of
// AP positions on a segment that crowd-vehicles confirm or reject.
type Pattern struct {
	ID      int        `json:"id"`
	Segment string     `json:"segment"`
	APs     []APReport `json:"aps"`
}

// Label is a crowd-vehicle's ±1 answer for a pattern.
type Label struct {
	Vehicle string `json:"vehicle"`
	TaskID  int    `json:"taskId"`
	Value   int    `json:"value"`
}

// LookupResult is a fused AP record served to user-vehicles.
type LookupResult struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Weight float64 `json:"weight"`
}

// SortLookup puts results in the order every /v1/lookup answer uses: by
// position (X, then Y) with ties broken by descending weight — a total order
// independent of map iteration and of which shard held what, so a single
// node, a recovered node and a router merging k shards answer byte for byte
// identically.
func SortLookup(rs []LookupResult) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].X != rs[j].X {
			return rs[i].X < rs[j].X
		}
		if rs[i].Y != rs[j].Y {
			return rs[i].Y < rs[j].Y
		}
		return rs[i].Weight > rs[j].Weight
	})
}

var lookupParams = [4]string{"xmin", "ymin", "xmax", "ymax"}

// LookupQuery encodes area as the /v1/lookup query string. Values are
// query-escaped: the shortest float form of 1e6 is "1e+06", and a bare "+"
// decodes to a space.
func LookupQuery(area geo.Rect) string {
	q := url.Values{}
	for i, v := range [4]float64{area.Min.X, area.Min.Y, area.Max.X, area.Max.Y} {
		q.Set(lookupParams[i], strconv.FormatFloat(v, 'g', -1, 64))
	}
	return q.Encode()
}

// ParseLookupQuery decodes what LookupQuery encodes. Degenerate rects are
// rejected instead of built: geo.NewRect would silently normalize swapped
// corners and answer the wrong query. NaN is no coordinate (it would pass
// the corner comparison and scan every AP to match none); ±Inf stays legal,
// it is how a client asks for everything.
func ParseLookupQuery(q url.Values) (geo.Rect, error) {
	var vals [4]float64
	for i, name := range lookupParams {
		v, err := strconv.ParseFloat(q.Get(name), 64)
		if err != nil || math.IsNaN(v) {
			return geo.Rect{}, fmt.Errorf("bad %s", name)
		}
		vals[i] = v
	}
	if vals[0] > vals[2] || vals[1] > vals[3] {
		return geo.Rect{}, errors.New("degenerate rect: xmin must not exceed xmax and ymin must not exceed ymax")
	}
	return geo.Rect{Min: geo.Point{X: vals[0], Y: vals[1]}, Max: geo.Point{X: vals[2], Y: vals[3]}}, nil
}
