// Package cluster shards the crowd-server across nodes: a consistent-hash
// ring (subpackage ring) assigns every road segment to exactly one owner
// shard, a Router fans uploads to owners and scatter-gathers lookups, and
// rebalance/reconcile move segments as the shards' own log records when
// membership changes.
//
// The router is deliberately stateless: it holds no durable data, only the
// membership ring and per-shard HTTP clients. Anything idempotent about the
// protocol (Idempotency-Key dedupe, canonical replay bodies, Retry-After
// hints, X-Crowdwifi-Mode) is produced by the shards and passed through, so
// a client talking to the router observes the same bytes it would talking
// to a single crowd-server.
//
// The router answers for itself as a shard does: its /metrics is its own
// registry and its /debug/traces its own spans. It does not link the store:
// a dead shard's data is exported offline by a process that does
// (server.ExportFromDir), and the router only posts moves.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"crowdwifi/internal/api"
	"crowdwifi/internal/api/front"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/retry"
)

// PartialHeader names the shards missing from a scatter-gather answer. When
// set, the body is the merge of every shard that did answer: a degraded
// shard degrades only its slice of the map, and the client can tell a
// partial answer from a complete one without comparing counts.
const PartialHeader = "X-Crowdwifi-Partial"

// redMetrics prefixes the router's RED families.
const redMetrics = "crowdwifi_router_http"

// Peer is one shard the router can reach.
type Peer struct {
	ID  string
	URL string
}

// ParsePeers parses the -peers flag form "a=http://host:port,b=http://...".
func ParsePeers(s string) ([]Peer, error) {
	var out []Peer
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, rawurl, ok := strings.Cut(part, "=")
		if !ok || id == "" || rawurl == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=url)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		out = append(out, Peer{ID: id, URL: rawurl})
	}
	if len(out) == 0 {
		return nil, errors.New("cluster: no peers")
	}
	return out, nil
}

// RouterOptions configure a Router.
type RouterOptions struct {
	// Peers are the shards the router knows how to reach. Required.
	Peers []Peer
	// Members are the initial ring members; nil selects every peer id.
	// Members must be a subset of peer ids.
	Members []string
	// Retry shapes the per-shard retry schedule. Zero value selects the
	// package defaults, which the router binary runs. It stays an option
	// because the cluster tests shorten the schedule to milliseconds, or to
	// one attempt.
	Retry retry.Policy
	// HTTP is the base transport under the retry layer; nil selects
	// http.DefaultClient.
	HTTP retry.HTTPDoer
	// Registry receives router metrics; nil disables them.
	Registry *obs.Registry
	// Logger receives router logs; nil is silent.
	Logger *slog.Logger
	// Overload, when non-nil, enables the router's own admission control.
	// The router holds no durable state, so its mode never leaves healthy and
	// nothing needs to run its probe loop.
	Overload *overload.Options
}

// peerClient is one shard's outbound path: its base URL plus a retrying
// doer with a private breaker, so a dead shard trips only its own circuit
// and the survivors keep their retry capacity.
type peerClient struct {
	id      string
	base    *url.URL
	doer    *retry.Doer
	breaker *retry.Breaker
}

func (p *peerClient) endpoint(path, rawQuery string) string {
	u := *p.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = rawQuery
	return u.String()
}

// Router is the cluster front door: an http.Handler speaking the same /v1
// surface as a single crowd-server, backed by owner-routed forwarding and
// scatter-gather merges across the shard set.
type Router struct {
	mux     *http.ServeMux
	stack   front.Stack
	metrics *routerMetrics
	log     *slog.Logger

	// peers is written only by NewRouter; membership changes swap ring.
	peers map[string]*peerClient
	ring  atomic.Pointer[ring.Ring]
}

// NewRouter builds a Router from opts.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Peers) == 0 {
		return nil, errors.New("cluster: router needs at least one peer")
	}
	rt := &Router{
		mux:     http.NewServeMux(),
		metrics: newRouterMetrics(opts.Registry),
		log:     opts.Logger,
		peers:   map[string]*peerClient{},
	}
	if rt.log == nil {
		rt.log = obs.Discard
	}
	retryMetrics := retry.NewMetrics(opts.Registry)
	for _, p := range opts.Peers {
		if _, dup := rt.peers[p.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		u, err := url.Parse(p.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad peer url %q", p.URL)
		}
		// Each breaker's transitions are counted; its state is one value per
		// shard, so /debug/cluster reports it, not the unlabelled gauge.
		breaker := retry.NewBreaker(retry.BreakerConfig{OnStateChange: retryMetrics.CountTransition})
		rt.peers[p.ID] = &peerClient{
			id:   p.ID,
			base: u,
			doer: retry.NewDoer(opts.HTTP, opts.Retry,
				retry.WithBreaker(breaker),
				retry.WithMetrics(retryMetrics)),
			breaker: breaker,
		}
	}
	members := opts.Members
	if members == nil {
		for id := range rt.peers {
			members = append(members, id)
		}
	}
	if err := rt.UpdateMembers(members); err != nil {
		return nil, err
	}
	var ov *overload.Admission
	if opts.Overload != nil {
		o := *opts.Overload
		if o.Registry == nil {
			o.Registry = opts.Registry
		}
		ov = overload.New(o)
	}
	rt.stack = front.Stack{
		Tier:      "router",
		Metrics:   redMetrics,
		Help:      "Router ",
		Registry:  opts.Registry,
		Sheds:     rt.metrics.shed,
		Admission: ov,
	}
	handle := func(route string, h http.HandlerFunc) { rt.stack.Handle(rt.mux, route, h) }
	handle(api.RouteReports, rt.handleUpload)
	handle(api.RouteReportsBatch, rt.handleBatch)
	handle(api.RoutePatterns, rt.handleUpload)
	handle(api.RouteLookup, rt.handleLookup)
	handle(api.RouteAggregate, rt.handleAggregate)
	handle(api.RouteReliability, rt.handleReliability)
	handle(api.RouteLabels, rt.handleShardLocal)
	handle(api.RouteTasks, rt.handleShardLocal)
	handle(api.RouteClusterMembers, rt.handleMembers)
	return rt, nil
}

// Members returns the current ring membership.
func (rt *Router) Members() []string { return rt.ring.Load().Members() }

// Owner returns the shard owning segment under the current ring.
func (rt *Router) Owner(segment string) string { return rt.ring.Load().Owner(segment) }

// UpdateMembers installs a new membership ring. Every member must be a
// known peer; peers absent from members stay reachable (for rebalance
// pulls) but receive no routed traffic.
func (rt *Router) UpdateMembers(members []string) error {
	if len(members) == 0 {
		return errors.New("cluster: members required")
	}
	for _, m := range members {
		if _, ok := rt.peers[m]; !ok {
			return fmt.Errorf("cluster: member %q is not a configured peer", m)
		}
	}
	rg := ring.New(members, 0)
	rt.ring.Store(rg)
	rt.log.Info("router membership updated", "members", strings.Join(rg.Members(), ","))
	return nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// DebugHandler returns the router's debug surface, built once so the API
// listener and -metrics-addr serve the same handler. It has a shard's form:
// /metrics and pprof are the router's own registry and process, and
// /debug/traces is the router's own span store (traces, which may be nil).
// Each process answers for itself; a routed upload's shard spans are on the
// owning shard, under the router attempt their traceparent names.
// /debug/cluster is ClusterHandler, and health answers /healthz and
// /readyz.
func (rt *Router) DebugHandler(traces *trace.Store, health *obs.Health) http.Handler {
	debug := obs.Debug(rt.stack.Registry, traces, health)
	debug.Handle("/debug/cluster", rt.ClusterHandler())
	return debug
}

// WithTracer returns a middleware installing tracer into every request
// context, activating the router's tracing layer.
func WithTracer(tracer *trace.Tracer, next http.Handler) http.Handler {
	if tracer == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(w, r.WithContext(trace.WithTracer(r.Context(), tracer)))
	})
}

// passthroughHeaders are the shard response headers a forwarded answer
// keeps. Everything idempotency- and backoff-related must survive the hop:
// a fleet client behind the router depends on Retry-After/Idempotent-Replay
// exactly as it would talking to the shard directly.
var passthroughHeaders = []string{
	"Content-Type",
	"Retry-After",
	api.RetryAfterMsHeader,
	api.ModeHeader,
	"Idempotent-Replay",
	api.OwnerHeader,
}

// proxy relays an upstream response downstream verbatim: whitelisted
// headers, status, body bytes.
func proxy(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, name := range passthroughHeaders {
		if v := resp.Header.Get(name); v != "" {
			w.Header().Set(name, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// send issues one upstream request through the peer's retry doer and
// records the exchange (mode gauge, error counters). The caller owns the
// response body.
func (rt *Router) send(pc *peerClient, req *http.Request) (*http.Response, error) {
	resp, err := pc.doer.Do(req)
	mode := ""
	if resp != nil {
		mode = resp.Header.Get(api.ModeHeader)
	}
	rt.metrics.observeShard(pc.id, mode, err)
	return resp, err
}

// forward posts body to one shard, copying the upload headers that must
// survive the hop (Content-Type, Idempotency-Key; traceparent is stamped
// per attempt by the retry doer).
func (rt *Router) forward(ctx context.Context, pc *peerClient, path string, in http.Header, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, pc.endpoint(path, ""), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"Content-Type", api.IdempotencyKeyHeader} {
		if v := in.Get(name); v != "" {
			req.Header.Set(name, v)
		}
	}
	return rt.send(pc, req)
}

// handleUpload routes POST /v1/reports and /v1/patterns to the segment's
// owner shard. A 421 Misdirected Request answer — the shard's ring
// disagrees with ours, mid-rebalance — is re-routed once to the owner the
// shard names; a second disagreement is returned to the client, whose
// retry layer will come back after the membership change settles.
func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusNotImplemented,
			errors.New("not implemented at the router: pattern/report listings are shard-local; query shards directly"))
		return
	}
	body, err := api.ReadBody(w, r, api.DefaultMaxBodyBytes)
	if err != nil {
		api.WriteBodyError(w, err)
		return
	}
	segment, err := uploadSegment(r, body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if segment == "" {
		api.WriteError(w, http.StatusBadRequest, errors.New("segment required"))
		return
	}
	owner := rt.ring.Load().Owner(segment)
	if owner == "" {
		rt.stack.Shed(w, errors.New("no cluster members"), api.MinRetryAfter)
		return
	}
	// UpdateMembers admits only configured peers, so an owner has a client.
	resp, err := rt.forward(r.Context(), rt.peers[owner], r.URL.Path, r.Header, body)
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", owner, err))
		return
	}
	served := owner
	if resp.StatusCode == http.StatusMisdirectedRequest {
		next := resp.Header.Get(api.OwnerHeader)
		if npc := rt.peers[next]; npc != nil && next != owner {
			api.DrainClose(resp)
			rt.metrics.rerouted.Inc()
			rt.log.Warn("upload re-routed after 421",
				"segment", segment, "routed", owner, "owner", next)
			resp, err = rt.forward(r.Context(), npc, r.URL.Path, r.Header, body)
			if err != nil {
				api.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", next, err))
				return
			}
			served = next
		}
	}
	w.Header().Set(api.ShardHeader, served)
	trace.FromContext(r.Context()).SetAttr("shard", served)
	proxy(w, resp)
}

// uploadSegment extracts the routing segment from an upload body in either
// codec. A binary body is scanned, not decoded: the router routes on the
// frame's segment and forwards the original bytes verbatim, so a frame upload
// survives the 421 re-route bit-for-bit.
func uploadSegment(r *http.Request, body []byte) (string, error) {
	if api.IsFrameRequest(r) {
		var segment []byte
		n := 0
		err := api.ScanReportFrames(body, func(_, seg, _ []byte) { segment, n = seg, n+1 })
		if err != nil {
			return "", err
		}
		if n != 1 {
			return "", fmt.Errorf("cluster: %d report frames in a single-upload body, want 1", n)
		}
		return string(segment), nil
	}
	var probe struct {
		Segment string `json:"segment"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return "", err
	}
	return probe.Segment, nil
}

// handleShardLocal answers the routes the router cannot meaningfully proxy:
// mapping-task ids are dense per-shard integers, so a label or task fetch
// only makes sense against the shard that issued the id.
func (rt *Router) handleShardLocal(w http.ResponseWriter, r *http.Request) {
	api.WriteError(w, http.StatusNotImplemented,
		errors.New("not implemented at the router: task ids are shard-local; talk to the owning shard directly"))
}

// scatterResult is one shard's answer to a fan-out GET.
type scatterResult struct {
	id   string
	body []byte
	err  error
}

// scatter sends one request (see peerDo) to every current ring member
// concurrently and returns the answers in sorted-shard order. Results with
// err != nil carry no body; non-200 statuses are errors.
func (rt *Router) scatter(ctx context.Context, method, path, query string) []scatterResult {
	members := rt.ring.Load().Members()
	out := make([]scatterResult, len(members))
	var wg sync.WaitGroup
	for i, id := range members {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			body, err := rt.peerDo(ctx, id, method, path, query, "", "", nil)
			out[i] = scatterResult{id: id, body: body, err: err}
		}(i, id)
	}
	wg.Wait()
	return out
}

// maxSliceBytes caps a single answer read from a shard; matches the
// shard-side cap on a move.
const maxSliceBytes = 256 << 20

// partition splits scatter results into decoded successes and the sorted
// ids of failed shards.
func partition[T any](results []scatterResult) (ok []struct {
	ID    string
	Value T
}, missing []string, errs []error) {
	for _, res := range results {
		if res.err != nil {
			missing = append(missing, res.id)
			errs = append(errs, res.err)
			continue
		}
		var v T
		if err := json.Unmarshal(res.body, &v); err != nil {
			missing = append(missing, res.id)
			errs = append(errs, fmt.Errorf("shard %s: %w", res.id, err))
			continue
		}
		ok = append(ok, struct {
			ID    string
			Value T
		}{res.id, v})
	}
	sort.Strings(missing)
	return ok, missing, errs
}

// handleLookup scatter-gathers GET /v1/lookup across every ring member and
// merges with the shard server's deterministic order (X asc, Y asc, Weight
// desc), so the merged body is byte-identical to a single server holding
// the union of the shards' fused maps. Degenerate rects are rejected here
// with the shard's exact error, saving a pointless fan-out. When some — but
// not all — shards fail, the answer is 200 with PartialHeader naming the
// missing shards: a degraded shard degrades only its slice of the map.
func (rt *Router) handleLookup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	if _, err := api.ParseLookupQuery(r.URL.Query()); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	results, missing, errs := partition[[]api.LookupResult](rt.scatter(r.Context(), http.MethodGet, api.RouteLookup, r.URL.RawQuery))
	if len(results) == 0 {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("no shard answered: %w", errors.Join(errs...)))
		return
	}
	merged := []api.LookupResult{}
	for _, res := range results {
		merged = append(merged, res.Value...)
	}
	api.SortLookup(merged)
	if len(missing) > 0 {
		rt.metrics.partial.Inc()
		w.Header().Set(PartialHeader, strings.Join(missing, ","))
		rt.log.Warn("partial lookup", "missing", strings.Join(missing, ","))
	}
	// The merge always happens in the JSON domain (shards are asked for
	// JSON), so the JSON answer stays byte-identical to a single server's;
	// the frame codec is applied only at this edge, on the merged result.
	if api.WantsFrame(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", api.FrameContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(api.EncodeLookupFrame(merged))
		return
	}
	api.WriteJSON(w, http.StatusOK, merged)
}

// handleAggregate broadcasts POST /v1/aggregate to every member and sums
// the per-shard fused-AP counts. Aggregation is the step that makes every
// shard's slice queryable, so unlike lookups it is all-or-nothing: any
// shard failing fails the broadcast with 502, and the caller retries.
func (rt *Router) handleAggregate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	results := rt.scatter(r.Context(), http.MethodPost, api.RouteAggregate, "")
	counts, missing, errs := partition[map[string]int](results)
	if len(missing) > 0 {
		api.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("aggregate incomplete, failed shards %s: %w", strings.Join(missing, ","), errors.Join(errs...)))
		return
	}
	total := 0
	for _, c := range counts {
		total += c.Value["fusedAPs"]
	}
	api.WriteJSON(w, http.StatusOK, map[string]int{"fusedAPs": total})
}

// handleReliability scatter-gathers GET /v1/reliability and merges the
// per-vehicle scores. A vehicle scored by several shards (it drove through
// several ownership slices) takes its score from the first shard in sorted
// order — deterministic, if arbitrary; reliability is shard-locally
// inferred and only advisory across the cluster.
func (rt *Router) handleReliability(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	results, missing, errs := partition[map[string]float64](rt.scatter(r.Context(), http.MethodGet, api.RouteReliability, ""))
	if len(results) == 0 {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("no shard answered: %w", errors.Join(errs...)))
		return
	}
	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	merged := map[string]float64{}
	for _, res := range results {
		for vehicle, score := range res.Value {
			if _, ok := merged[vehicle]; !ok {
				merged[vehicle] = score
			}
		}
	}
	if len(missing) > 0 {
		rt.metrics.partial.Inc()
		w.Header().Set(PartialHeader, strings.Join(missing, ","))
	}
	api.WriteJSON(w, http.StatusOK, merged)
}

// handleMembers serves the router's membership view. GET returns it; POST
// installs a new ring and, unless ?propagate=false, pushes it to every new
// member shard so router and shards agree on ownership atomically from the
// operator's point of view. Shards outside the new membership are left
// untouched — a departing shard may already be dead, and its ring no longer
// matters.
func (rt *Router) handleMembers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var req api.MembersRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if err := rt.UpdateMembers(req.Members); err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if r.URL.Query().Get("propagate") != "false" {
			if err := rt.PropagateMembers(r.Context()); err != nil {
				api.WriteError(w, http.StatusBadGateway, err)
				return
			}
		}
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	rg := rt.ring.Load()
	peers := make([]string, 0, len(rt.peers))
	for id := range rt.peers {
		peers = append(peers, id)
	}
	sort.Strings(peers)
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"members": rg.Members(),
		"vnodes":  rg.VNodes(),
		"peers":   peers,
	})
}

// PropagateMembers pushes the router's current membership to every member
// shard, so shard-side ownership filters (the 421 guard) agree with the
// router's routing table.
func (rt *Router) PropagateMembers(ctx context.Context) error {
	members := rt.ring.Load().Members()
	var errs []error
	for _, id := range members {
		errs = append(errs, rt.peerPostJSON(ctx, id, api.RouteClusterMembers, api.MembersRequest{Members: members}, nil))
	}
	return errors.Join(errs...)
}
