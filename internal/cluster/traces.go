package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"crowdwifi/internal/obs/trace"
)

// maxTraceBytes caps one shard's answer to a debug fan-out. A longer answer
// fails that member rather than being cut to a prefix that no longer parses.
const maxTraceBytes = 8 << 20

// traceFetch is one shard's answer to a trace fan-out: a decoded payload or
// an error. notFound distinguishes "shard reachable, no fragment" (normal —
// only the owner holds server spans) from a transport failure.
type traceFetch struct {
	id       string
	body     []byte
	notFound bool
	err      error
}

// fanOutDebug fans a GET for a debug path to every current ring member.
// Unlike scatter it keeps 404 answers as notFound instead of errors: a shard
// without a fragment of the requested trace is the expected case.
func (rt *Router) fanOutDebug(ctx context.Context, path string) []traceFetch {
	members := rt.ring.Load().Members()
	out := make([]traceFetch, len(members))
	var wg sync.WaitGroup
	for i, id := range members {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			out[i] = traceFetch{id: id}
			pc := rt.peer(id)
			if pc == nil {
				out[i].err = fmt.Errorf("member %q is not a configured peer", id)
				return
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, pc.endpoint(path, ""), nil)
			if err != nil {
				out[i].err = err
				return
			}
			resp, err := pc.doer.Do(req)
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, maxTraceBytes+1))
			if err != nil {
				out[i].err = err
				return
			}
			if len(body) > maxTraceBytes {
				out[i].err = fmt.Errorf("shard %s: %s answer exceeds the %d MiB cap", id, path, maxTraceBytes>>20)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				out[i].body = body
			case http.StatusNotFound:
				out[i].notFound = true
			default:
				out[i].err = fmt.Errorf("shard %s: status %d: %s", id, resp.StatusCode, strings.TrimSpace(string(body)))
			}
		}(i, id)
	}
	wg.Wait()
	return out
}

// traceIndex mirrors the shard-side /debug/traces index document.
type traceIndex struct {
	Recent  []trace.TraceSummary            `json:"recent"`
	Slowest map[string][]trace.TraceSummary `json:"slowest"`
	Errors  []trace.TraceSummary            `json:"errors"`
}

// TraceHandler returns the router's assembling /debug/traces surface.
//
// GET /debug/traces/{id} fans the id out to every shard's /debug/traces/{id}
// plus the router's own store and merges the fragments into one logical
// trace: the router hop, any 421 re-route, and the owning shard's middleware
// /dedupe/wal spans in a single view. Shards without a fragment (404) are
// normal; a trace no process retains is a 404. GET /debug/traces merges the
// per-process index lists, deduplicated by trace id.
//
// own may be nil (a router running without tracing still assembles shard
// fragments).
func (rt *Router) TraceHandler(own *trace.Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		path := strings.TrimSuffix(r.URL.Path, "/")
		id := ""
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			if tail := path[i+1:]; tail != "traces" {
				id = tail
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if id == "" {
			rt.serveTraceIndex(w, r.Context(), own)
			return
		}

		var fragments []trace.TraceData
		if fr, ok := own.Get(id); ok {
			fragments = append(fragments, fr)
		}
		var unreachable []string
		for _, f := range rt.fanOutDebug(r.Context(), "/debug/traces/"+id) {
			if f.err != nil {
				unreachable = append(unreachable, f.id)
				continue
			}
			if f.notFound {
				continue
			}
			var fr trace.TraceData
			if err := json.Unmarshal(f.body, &fr); err != nil {
				unreachable = append(unreachable, f.id)
				continue
			}
			fragments = append(fragments, fr)
		}
		merged, ok := trace.Merge(fragments...)
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error": "trace not found", "id": id, "unreachable": unreachable,
			})
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(merged)
	})
}

// serveTraceIndex merges the shard index documents with the router's own
// store into one cluster-wide listing.
func (rt *Router) serveTraceIndex(w http.ResponseWriter, ctx context.Context, own *trace.Store) {
	idx := traceIndex{
		Recent:  own.Recent(),
		Slowest: map[string][]trace.TraceSummary{},
		Errors:  own.Errors(),
	}
	for name, ids := range own.Slowest() {
		idx.Slowest[name] = ids
	}
	for _, f := range rt.fanOutDebug(ctx, "/debug/traces") {
		if f.err != nil || f.notFound {
			continue
		}
		var shard traceIndex
		if err := json.Unmarshal(f.body, &shard); err != nil {
			continue
		}
		idx.Recent = append(idx.Recent, shard.Recent...)
		idx.Errors = append(idx.Errors, shard.Errors...)
		for name, sums := range shard.Slowest {
			idx.Slowest[name] = append(idx.Slowest[name], sums...)
		}
	}
	idx.Recent = dedupeSummaries(idx.Recent, true)
	idx.Errors = dedupeSummaries(idx.Errors, true)
	for name, sums := range idx.Slowest {
		sums = dedupeSummaries(sums, false)
		sort.SliceStable(sums, func(i, j int) bool { return sums[i].DurationNS > sums[j].DurationNS })
		if len(sums) > trace.DefaultSlowPerEndpoint {
			sums = sums[:trace.DefaultSlowPerEndpoint]
		}
		idx.Slowest[name] = sums
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(idx)
}

// dedupeSummaries keeps one summary per trace id — the one with the most
// spans, since a process holding more of the trace describes it better.
// With newestFirst the result is sorted by start time, newest first.
func dedupeSummaries(in []trace.TraceSummary, newestFirst bool) []trace.TraceSummary {
	best := map[string]trace.TraceSummary{}
	for _, s := range in {
		if cur, ok := best[s.ID]; !ok || s.Spans > cur.Spans {
			best[s.ID] = s
		}
	}
	out := make([]trace.TraceSummary, 0, len(best))
	for _, s := range best {
		out = append(out, s)
	}
	if newestFirst {
		sort.SliceStable(out, func(i, j int) bool {
			if !out[i].Start.Equal(out[j].Start) {
				return out[i].Start.After(out[j].Start)
			}
			return out[i].ID < out[j].ID
		})
	}
	return out
}
