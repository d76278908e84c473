// Package front is what the shard server and the cluster router need to
// serve internal/api's routes and no client needs to call them: the
// middleware stack every route is mounted through, the route → shedding-family
// table and the debug mount. It is kept out of api so that
// a vehicle does not link admission control to parse a Retry-After.
package front

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
)

// Stack is the serving front-end of a tier: every route of the shard server
// and of the cluster router is mounted through Handle, so traces, RED series,
// admission and the 503 shape mean the same thing on both. The layers a tier
// leaves unconfigured (nil Registry, Tracer, Admission; zero Timeout) cost
// nothing.
type Stack struct {
	// Tier names the process in span names ("server GET /v1/lookup",
	// "server.shed") and shed reasons ("server over capacity").
	Tier string
	// Metrics prefixes the RED family names (crowdwifi_http →
	// crowdwifi_http_requests_total) and Help their help texts.
	Metrics, Help string
	// Registry receives the RED families; Sheds counts every 503 this tier
	// originates, whether admission or a handler decided it.
	Registry *obs.Registry
	Sheds    *obs.Counter
	// Tracer starts the per-request server span; nil falls back to a tracer
	// installed in the request context.
	Tracer *trace.Tracer
	// Admission gates every route by the family classify assigns it.
	Admission *overload.Admission
	// Timeout bounds the handler's context, counted from admission so queue
	// wait does not eat the handler's deadline (≤ 0 disables).
	Timeout time.Duration
}

// statusWriter captures the response code for the layers of Handle.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Handle mounts h at route behind the stack, outermost first: tracing (a
// valid traceparent header continues the caller's trace, anything else
// starts a head-sampled one), then the RED instrumentation (outside
// admission so observed latency includes queue wait and sheds count as
// 503s), then admission control, then the per-request deadline. The route's
// latency histogram is registered here, so the exposition lists every route
// from startup.
func (s *Stack) Handle(mux *http.ServeMux, route string, h http.HandlerFunc) {
	hist := s.Registry.Histogram(s.Metrics+"_request_duration_seconds",
		s.Help+"HTTP request latency by route.", nil, obs.L("route", route))
	mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		tracer := s.Tracer
		if tracer == nil {
			tracer = trace.TracerFromContext(r.Context())
		}
		method := methodLabel(r.Method)
		ctx, span := r.Context(), (*trace.Span)(nil)
		if tracer != nil {
			ctx, span = tracer.StartServer(ctx, s.Tier+" "+method+" "+route, r.Header)
		}
		defer span.End()
		span.SetAttr("http.method", r.Method)
		span.SetAttr("http.route", route)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()

		s.admit(ctx, sw, r, route, span != nil, h)

		if s.Registry != nil {
			hist.Observe(time.Since(start).Seconds())
			s.count(route, method, sw.code)
		}
		span.SetAttr("http.status", sw.code)
		if sw.code >= http.StatusInternalServerError {
			span.SetError(fmt.Errorf("status %d", sw.code))
		}
	})
}

// methodLabel folds a request method into the closed set the route table
// answers. net/http accepts any token as a method, so the raw value would let
// one unauthenticated loop mint a series (and a slowest-traces root name) per
// spelling.
func methodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodPost:
		return method
	}
	return "other"
}

// count records one served request, plus the error series for 4xx/5xx
// outcomes — with the duration histogram, the per-endpoint RED triple.
func (s *Stack) count(route, method string, status int) {
	code := strconv.Itoa(status)
	s.Registry.Counter(s.Metrics+"_requests_total",
		s.Help+"HTTP requests served, by route, method, and status code.",
		obs.L("route", route), obs.L("method", method), obs.L("code", code)).Inc()
	if status >= 400 {
		s.Registry.Counter(s.Metrics+"_errors_total",
			s.Help+"HTTP requests answered with a 4xx/5xx status, by route and code.",
			obs.L("route", route), obs.L("code", code)).Inc()
	}
}

// admit runs h under admission control: acquire a slot in the route's family
// (waiting briefly in the bounded queue), shed when the family stays full,
// and reject mutations outright while read-only. newCtx says ctx is no longer
// the request's own.
func (s *Stack) admit(ctx context.Context, w *statusWriter, r *http.Request, route string, newCtx bool, h http.HandlerFunc) {
	if s.Admission != nil {
		fam, mutation := classify(route, r.Method)
		// Every response carries the tier's degradation mode, not just the
		// sheds: the router tracks shard health passively from traffic it
		// was relaying anyway, without probing or parsing errors.
		w.Header().Set(api.ModeHeader, s.Admission.Mode().String())
		dec := s.Admission.Admit(ctx, fam, mutation)
		if !dec.OK {
			mode := s.Admission.Mode().String()
			w.Header().Set(api.ModeHeader, mode)
			_, sp := trace.StartChild(ctx, s.Tier+".shed")
			sp.SetAttr("family", fam.String())
			sp.SetAttr("mode", mode)
			sp.SetAttr("retry_after_ms", int(dec.RetryAfter/time.Millisecond))
			sp.End()
			reason := " over capacity"
			if dec.ReadOnly {
				reason = " is read-only: durable writes unavailable"
			}
			s.Shed(w, errors.New(s.Tier+reason), dec.RetryAfter)
			return
		}
		defer dec.Release(0, true)
	}
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
		newCtx = true
	}
	if newCtx {
		r = r.WithContext(ctx)
	}
	h(w, r)
}

// classify maps a (route, method) to its shedding family and whether it
// mutates durable state (refused while read-only). Uploads (vehicle ingest
// POSTs), control traffic (GET reads, task/aggregation management) and
// /v1/lookup each have their own cap, so an ingest flood cannot take a
// lookup's slot. One table serves both tiers:
// the router holds no durable state, so its admission layer never turns
// read-only and the mutation bit is inert there.
func classify(route, method string) (overload.Family, bool) {
	switch route {
	case api.RouteLookup:
		return overload.FamilyLookup, false
	case api.RouteReports, api.RouteReportsBatch, api.RouteLabels, api.RoutePatterns:
		if method == http.MethodPost {
			return overload.FamilyUpload, true
		}
		return overload.FamilyControl, false
	case api.RouteAggregate:
		return overload.FamilyControl, method == http.MethodPost
	case api.RouteClusterSlice, api.RouteClusterDrop:
		// Rebalance transfers mutate durable state; a read-only shard must
		// reject them like any upload so data is never half-moved onto a
		// failing disk.
		return overload.FamilyControl, method == http.MethodPost
	default:
		return overload.FamilyControl, false
	}
}

// Shed is the one 503 writer: admission uses it, and so do handlers that
// shed for their own reasons (duplicate in flight, empty ring). retryAfter is
// the caller's estimate of when capacity returns.
func (s *Stack) Shed(w http.ResponseWriter, reason error, retryAfter time.Duration) {
	s.Sheds.Inc()
	api.WriteShed(w, reason, retryAfter)
}

// ServeDebug serves a process's debug surface — /metrics, /debug/*, /healthz
// and /readyz, built once as one handler — on mux, so the API listener and a
// -metrics-addr listener serving debug directly cannot drift apart.
func ServeDebug(mux *http.ServeMux, debug http.Handler) {
	for _, path := range []string{"/metrics", "/debug/", "/healthz", "/readyz"} {
		mux.Handle(path, debug)
	}
}
