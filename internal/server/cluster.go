package server

// Cluster support for the shard-aware crowd-server: segment ownership
// enforcement against a consistent-hash ring, per-segment digests for drift
// detection, and slice export/apply — the primitives the router and the
// rebalance/reconcile machinery in internal/cluster are built on.
//
// Ownership model: every road segment (and all its reports, patterns, and
// fused results) belongs to exactly one shard, the ring owner of its segment
// key. A shard booted with WithCluster rejects misdirected ingest with 421
// Misdirected Request and names the owner in the X-Crowdwifi-Owner header so
// a router holding a stale ring can re-route in one hop. Slice apply is
// deliberately NOT ownership-filtered: rebalance streams state under the
// *target* ring, which may differ from the ring a shard was booted with
// until the membership update lands.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/wal"
)

// maxSliceBytes caps a slice-apply request body. Slices carry a shard's
// worth of reports, so the ingest cap would reject any real rebalance.
const maxSliceBytes = 256 << 20

// ClusterOptions configures a shard's view of the cluster.
type ClusterOptions struct {
	// Self is this shard's member id.
	Self string
	// Members are all shard ids, including Self.
	Members []string
	// VNodes is the ring's virtual-node count (≤ 0 selects the default).
	VNodes int
}

// WithCluster makes the server shard-aware: ingest rejects segments owned by
// another shard with 421 + X-Crowdwifi-Owner, and the /v1/cluster endpoints
// (digest, slice, drop, members) are mounted.
func WithCluster(o ClusterOptions) Option {
	return func(s *Server) {
		if o.Self == "" {
			return
		}
		cs := &clusterState{self: o.Self, vnodes: o.VNodes}
		cs.ring.Store(ring.New(o.Members, o.VNodes))
		s.cluster = cs
	}
}

// clusterState is a shard's mutable cluster view. The ring is swapped
// atomically on membership updates; requests read it lock-free.
type clusterState struct {
	self   string
	vnodes int
	ring   atomic.Pointer[ring.Ring]
}

// misdirected reports whether seg belongs to another shard, and which.
func (s *Server) misdirected(seg string) (owner string, ok bool) {
	if s.cluster == nil {
		return "", false
	}
	owner = s.cluster.ring.Load().Owner(seg)
	return owner, owner != "" && owner != s.cluster.self
}

// rejectMisdirected writes the 421 ownership rejection. The status is
// deliberately not in retry.RetryableStatus: replaying the same request at
// the same shard can never succeed — the caller must re-route to the named
// owner.
func (s *Server) rejectMisdirected(w http.ResponseWriter, seg, owner string) {
	w.Header().Set(api.OwnerHeader, owner)
	api.WriteError(w, http.StatusMisdirectedRequest,
		fmt.Errorf("segment %q is owned by shard %q", seg, owner))
}

// SegmentDigests computes the per-segment digest map over everything the
// store holds.
func (s *Store) SegmentDigests() map[string]api.SegmentDigest {
	c := s.capture()
	out := map[string]api.SegmentDigest{}
	for _, r := range c.reports {
		d := out[r.Segment]
		d.Reports++
		out[r.Segment] = d
	}
	for _, p := range c.patterns {
		d := out[p.Segment]
		d.Patterns++
		out[p.Segment] = d
	}
	for _, l := range c.labels {
		seg := c.patterns[l.TaskID].Segment
		d := out[seg]
		d.Labels++
		out[seg] = d
	}
	for seg, fused := range c.view.fused {
		d := out[seg]
		d.Fused = len(fused)
		if b, err := json.Marshal(fused); err == nil {
			d.FusedDigest = strconv.FormatUint(ring.Hash64(string(b)), 16)
		}
		out[seg] = d
	}
	return out
}

// sliceKey mints the deterministic apply-idempotency key for one exported
// item: source shard, item kind, a content hash, and the item's occurrence
// rank among identical contents in export order. The rank — not the absolute
// index — makes keys stable across re-exports even after unrelated items
// were dropped, so a retried apply of a partially-landed slice deduplicates
// instead of double-ingesting.
func sliceKey(source, kind string, content any, ranks map[string]int) string {
	b, err := json.Marshal(content)
	if err != nil {
		panic(err) // slice items are plain structs; cannot fail
	}
	h := strconv.FormatUint(ring.Hash64(string(b)), 16)
	rk := kind + h
	n := ranks[rk]
	ranks[rk] = n + 1
	return fmt.Sprintf("mig-%s-%s%s-%d", source, kind, h, n)
}

// ExportSlice exports every pattern, report, and label whose segment
// satisfies owned, stamped with deterministic apply keys. source names this
// shard in the keys. Export preserves arrival order, so the receiving
// shard's per-segment report order — and therefore its fusion output — is
// identical to the source's.
func (s *Store) ExportSlice(owned func(segment string) bool, source string) api.Slice {
	c := s.capture()
	sl := api.Slice{Source: source, Patterns: []api.SlicePattern{}, Reports: []api.SliceReport{}, Labels: []api.SliceLabel{}}
	ranks := map[string]int{}
	for _, p := range c.patterns {
		if !owned(p.Segment) {
			continue
		}
		sp := api.SlicePattern{ID: p.ID, Segment: p.Segment, APs: p.APs}
		sp.Key = sliceKey(source, "p", sp, ranks)
		sl.Patterns = append(sl.Patterns, sp)
	}
	for _, r := range c.reports {
		if !owned(r.Segment) {
			continue
		}
		sr := api.SliceReport{Report: r}
		sr.Key = sliceKey(source, "r", sr, ranks)
		sl.Reports = append(sl.Reports, sr)
	}
	for _, l := range c.labels {
		seg := c.patterns[l.TaskID].Segment
		if !owned(seg) {
			continue
		}
		lb := api.SliceLabel{Label: l, Segment: seg}
		lb.Key = sliceKey(source, "l", lb, ranks)
		sl.Labels = append(sl.Labels, lb)
	}
	return sl
}

// ExportSliceFromDir reconstructs a shard's state from its data directory —
// snapshot plus WAL suffix, read-only via wal.IterateDir — and exports the
// full slice. This is the rebalance path for a shard that is dead: its WAL
// is never opened for writing, and a torn tail from its final crash is
// tolerated without truncation. source names the departed shard in the
// slice's apply keys.
func ExportSliceFromDir(dir string, mergeRadius float64, source string) (api.Slice, error) {
	s, err := replayDir(dir, mergeRadius)
	if err != nil {
		return api.Slice{}, err
	}
	return s.ExportSlice(func(string) bool { return true }, source), nil
}

// replayDir rebuilds, in memory, the state recovery would give dir, without
// opening it for writing.
func replayDir(dir string, mergeRadius float64) (*Store, error) {
	s := NewStore(mergeRadius)
	_, err := s.loadDir(dir, func(after uint64, apply func(wal.Record) error) error {
		return wal.IterateDir(dir, after, apply)
	})
	if err != nil {
		return nil, fmt.Errorf("server: replaying %s: %w", dir, err)
	}
	return s, nil
}

// applySlice ingests a slice through the same durable, idempotent path as
// regular uploads: every item runs begin/release on the idempotency cache
// under its deterministic slice key, so a crashed or retried apply
// deduplicates per item instead of double-ingesting. Patterns are applied
// first and labels' task ids are rewritten from the source shard's dense ids
// to this shard's.
func (s *Server) applySlice(ctx context.Context, sl api.Slice) (api.SliceStats, error) {
	var stats api.SliceStats
	idMap := make(map[int]int, len(sl.Patterns))
	for _, p := range sl.Patterns {
		seen, rec := s.store.idem.begin(p.Key)
		if seen {
			if rec == nil {
				return stats, fmt.Errorf("server: slice item %s still in flight", p.Key)
			}
			var ack struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(rec.body, &ack); err != nil {
				return stats, fmt.Errorf("server: slice item %s has unparseable cached ack: %w", p.Key, err)
			}
			idMap[p.ID] = ack.ID
			stats.Deduped++
			continue
		}
		id, err := s.store.AddPatternKeyed(ctx, p.Key, p.Segment, p.APs)
		if err != nil {
			s.store.idem.release(p.Key)
			return stats, err
		}
		idMap[p.ID] = id
		stats.Patterns++
	}
	for _, r := range sl.Reports {
		seen, rec := s.store.idem.begin(r.Key)
		if seen {
			if rec == nil {
				return stats, fmt.Errorf("server: slice item %s still in flight", r.Key)
			}
			stats.Deduped++
			continue
		}
		if err := s.store.AddReportKeyed(ctx, r.Key, r.Report); err != nil {
			s.store.idem.release(r.Key)
			return stats, err
		}
		stats.Reports++
	}
	for _, l := range sl.Labels {
		newID, ok := idMap[l.Label.TaskID]
		if !ok {
			return stats, fmt.Errorf("server: slice label for task %d has no pattern in the slice", l.Label.TaskID)
		}
		seen, rec := s.store.idem.begin(l.Key)
		if seen {
			if rec == nil {
				return stats, fmt.Errorf("server: slice item %s still in flight", l.Key)
			}
			stats.Deduped++
			continue
		}
		remapped := l.Label
		remapped.TaskID = newID
		if err := s.store.AddLabelsKeyed(ctx, l.Key, []Label{remapped}); err != nil {
			s.store.idem.release(l.Key)
			return stats, err
		}
		stats.Labels++
	}
	return stats, nil
}

// handleClusterDigest serves GET /v1/cluster/digest.
func (s *Server) handleClusterDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.DigestResponse{
		Self:     s.cluster.self,
		Members:  s.cluster.ring.Load().Members(),
		Segments: s.store.SegmentDigests(),
		WAL:      s.store.WALStats(),
	})
}

// handleClusterSlice serves the rebalance transfer endpoint.
//
// GET exports a slice. Two filters are supported:
//   - ?segments=a,b,c — export exactly these segments;
//   - ?owner=X&members=a,b,c[&vnodes=n] — export the segments a ring over
//     members assigns to X (the requester dictates the target ring, so a
//     rebalance can slice under the post-change membership before this shard
//     has been told about it).
//
// POST applies a slice through the durable idempotent path; see applySlice.
func (s *Server) handleClusterSlice(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		var owned func(string) bool
		if segs := q.Get("segments"); segs != "" {
			set := map[string]bool{}
			for _, seg := range strings.Split(segs, ",") {
				if seg != "" {
					set[seg] = true
				}
			}
			owned = func(seg string) bool { return set[seg] }
		} else if owner := q.Get("owner"); owner != "" {
			members := strings.Split(q.Get("members"), ",")
			vnodes := 0
			if v := q.Get("vnodes"); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					api.WriteError(w, http.StatusBadRequest, errors.New("bad vnodes"))
					return
				}
				vnodes = n
			}
			rg := ring.New(members, vnodes)
			owned = func(seg string) bool { return rg.Owner(seg) == owner }
		} else {
			api.WriteError(w, http.StatusBadRequest, errors.New("need ?segments= or ?owner=&members="))
			return
		}
		api.WriteJSON(w, http.StatusOK, s.store.ExportSlice(owned, s.cluster.self))
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, maxSliceBytes)
		var sl api.Slice
		if !s.decodeBody(w, r, &sl) {
			return
		}
		ctx, span := trace.StartChild(r.Context(), "cluster.apply_slice")
		span.SetAttr("source", sl.Source)
		span.SetAttr("patterns", len(sl.Patterns))
		span.SetAttr("reports", len(sl.Reports))
		span.SetAttr("labels", len(sl.Labels))
		stats, err := s.applySlice(ctx, sl)
		span.SetError(err)
		span.End()
		if err != nil {
			s.mutationError(w, err)
			return
		}
		w.Header().Set(api.OwnerHeader, s.cluster.self)
		api.WriteJSON(w, http.StatusOK, stats)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// handleClusterDrop serves POST /v1/cluster/drop.
func (s *Server) handleClusterDrop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	var req api.DropRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Segments) == 0 {
		api.WriteError(w, http.StatusBadRequest, errors.New("segments required"))
		return
	}
	dropped, err := s.store.DropSegments(r.Context(), req.Segments)
	if err != nil {
		s.mutationError(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]int{"droppedReports": dropped})
}

// handleClusterMembers serves the shard's membership view: GET returns it,
// POST installs a new ring (an operator/rebalancer action — membership is
// config, not replicated state, so it is not WAL-logged).
func (s *Server) handleClusterMembers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var req api.MembersRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		if len(req.Members) == 0 {
			api.WriteError(w, http.StatusBadRequest, errors.New("members required"))
			return
		}
		s.cluster.ring.Store(ring.New(req.Members, s.cluster.vnodes))
		s.log.Info("cluster membership updated", "members", strings.Join(req.Members, ","))
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"self":    s.cluster.self,
		"members": s.cluster.ring.Load().Members(),
		"vnodes":  s.cluster.ring.Load().VNodes(),
	})
}
