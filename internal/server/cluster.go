package server

// Cluster support for the shard-aware crowd-server: segment ownership
// enforcement against a consistent-hash ring, per-segment digests for drift
// detection, and moves — the primitives the router and the rebalance/reconcile
// machinery in internal/cluster are built on.
//
// Ownership model: every road segment (and all its reports, patterns, and
// fused results) belongs to exactly one shard, the ring owner of its segment
// key. A shard booted with WithCluster rejects misdirected ingest with 421
// Misdirected Request and names the owner in the X-Crowdwifi-Owner header so
// a router holding a stale ring can re-route in one hop. Move apply is
// deliberately NOT ownership-filtered: rebalance streams state under the
// *target* ring, which may differ from the ring a shard was booted with
// until the membership update lands.
//
// A move is log shipping: a segment travels as frames of move blocks, each a
// record of the receiver's log as it stands (codec.go), and lands as one
// record per block. It is deduplicated by position, not by key: a block names
// where its entries stand in the segment on the source, the receiver keeps a
// cursor per (source, segment) and skips what lies below it, and the source
// counts the reports a drop removed so that positions never go back.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"crowdwifi/internal/api"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/wal"
)

// maxSliceBytes caps a move-apply request body. A move carries a shard's
// worth of reports, so the ingest cap would reject any real rebalance.
const maxSliceBytes = 256 << 20

// ClusterOptions configures a shard's view of the cluster.
type ClusterOptions struct {
	// Self is this shard's member id.
	Self string
	// Members are all shard ids, including Self.
	Members []string
}

// WithCluster makes the server shard-aware: ingest rejects segments owned by
// another shard with 421 + X-Crowdwifi-Owner, and the /v1/cluster endpoints
// (digest, slice, drop, members) are mounted.
func WithCluster(o ClusterOptions) Option {
	return func(s *Server) {
		if o.Self == "" {
			return
		}
		cs := &clusterState{self: o.Self}
		cs.ring.Store(ring.New(o.Members, 0))
		s.cluster = cs
	}
}

// clusterState is a shard's mutable cluster view. The ring is swapped
// atomically on membership updates; requests read it lock-free.
type clusterState struct {
	self string
	ring atomic.Pointer[ring.Ring]
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
// store holds. A fused list is hashed in the bytes the codec stores it as.
func (s *Store) SegmentDigests() map[string]api.SegmentDigest {
	c := s.capture()
	slot := map[string]int{} // a segment's place in reports
	var reports []int
	for i := range c.reports.len() {
		seg := parseEntry(c.reports.entry(i)).segment
		k, ok := slot[string(seg)]
		if !ok {
			k = len(reports)
			slot[string(seg)] = k
			reports = append(reports, 0)
		}
		reports[k]++
	}
	out := make(map[string]api.SegmentDigest, len(slot))
	for seg, k := range slot {
		out[seg] = api.SegmentDigest{Reports: reports[k]}
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
	var entry []byte
	for seg, fused := range c.view.fused {
		d := out[seg]
		d.Fused = len(fused)
		entry = appendFusedEntry(entry[:0], seg, fused)
		d.FusedDigest = strconv.FormatUint(ring.Hash64(string(entry)), 16)
		out[seg] = d
	}
	return out
}

// moveKey names what a move block comes from: a segment on a source shard.
type moveKey struct{ source, segment string }

// moveCursor is how far a receiver has applied one moveKey: the receiver's
// ids of the patterns so far, by position, and how many reports and labels.
type moveCursor struct {
	patterns        []int
	reports, labels int
}

// exportMove encodes, as a move from source, the evidence of every segment
// dest sends somewhere ("" keeps it here): for each destination, the frames
// of its segments in segment order, in blocks of at most budget bytes. Within
// a segment entries keep their arrival order, so the receiver fuses the
// segment as this store does. Reports go out as the entries the store holds.
func (s *Store) exportMove(source string, dest func(segment string) string, budget int) map[string][]byte {
	s.mu.Lock()
	c, dropped := s.captureLocked(), maps.Clone(s.dropped)
	s.mu.Unlock()
	moves := map[string]*moveBlock{} // nil for a segment that stays
	get := func(seg string) *moveBlock {
		m, ok := moves[seg]
		if !ok {
			if dest(seg) != "" {
				m = &moveBlock{source: source, segment: seg, first: [3]int{0, dropped[seg], 0}}
			}
			moves[seg] = m
		}
		return m
	}
	pos := make([]int, len(c.patterns)) // a pattern's position in its segment
	for i, p := range c.patterns {
		if m := get(p.Segment); m != nil {
			pos[i] = len(m.patterns)
			m.patterns = append(m.patterns, p)
		}
	}
	for i := range c.reports.len() {
		e := c.reports.entry(i)
		seg := parseEntry(e).segment
		m, ok := moves[string(seg)]
		if !ok {
			m = get(string(seg))
		}
		if m != nil {
			m.reports = append(m.reports, e)
		}
	}
	for _, l := range c.labels {
		if m := get(c.patterns[l.TaskID].Segment); m != nil {
			l.TaskID = pos[l.TaskID]
			m.labels = append(m.labels, l)
		}
	}
	out := map[string][]byte{}
	for _, seg := range sortedKeys(moves) {
		if m := moves[seg]; m != nil {
			to := dest(seg)
			out[to] = appendMove(out[to], *m, budget)
		}
	}
	return out
}

// ExportFromDir reconstructs a shard's state from its data directory —
// snapshot plus WAL suffix, read-only via wal.IterateDir — and exports it as
// a move from source, by the destination dest names for each segment (see
// exportMove). This is the rebalance path for a shard that is dead: its WAL
// is never opened for writing, and a torn tail from its final crash is
// tolerated without truncation. source must be the departed shard's id, the
// name its earlier moves went out under.
func ExportFromDir(dir string, mergeRadius float64, source string, dest func(segment string) string) (map[string][]byte, error) {
	s, err := replayDir(dir, mergeRadius)
	if err != nil {
		return nil, err
	}
	return s.exportMove(source, dest, defaultBatchChunkBytes), nil
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

// applyMove commits a move block by block, each a record of its own. A move
// that fails partway may be sent again whole: what landed is skipped by
// position.
func (s *Store) applyMove(ctx context.Context, stream []byte) (api.SliceStats, error) {
	var stats api.SliceStats
	blocks, err := decodeMove(stream)
	for i := 0; i < len(blocks) && err == nil; i++ {
		rec := record{kind: recMove, data: blocks[i].data, move: &blocks[i]}
		if err = s.commit(ctx, &rec); err == nil {
			stats.Add(rec.moved)
		}
	}
	return stats, err
}

// checkMoveLocked is a move block's check: it counts the entries of m that lie
// at or past its source's cursor, which are what applying it adds, and counts
// the rest as deduplicated. Patterns must follow on from the cursor without a
// gap, since labels name them by position; a gap in reports or labels is
// entries the source dropped before moving them. Requires s.mu held.
func (s *Store) checkMoveLocked(m *moveBlock) (api.SliceStats, error) {
	key := moveKey{m.source, m.segment}
	cur := s.received[key]
	if m.first[0] > len(cur.patterns) {
		return api.SliceStats{}, fmt.Errorf("server: %v pattern %d follows %d applied", key, m.first[0], len(cur.patterns))
	}
	fresh := func(applied, first, n int) int { return max(min(n, first+n-applied), 0) }
	st := api.SliceStats{
		Patterns: fresh(len(cur.patterns), m.first[0], len(m.patterns)),
		Reports:  fresh(cur.reports, m.first[1], len(m.reports)),
		Labels:   fresh(cur.labels, m.first[2], len(m.labels)),
	}
	known := max(len(cur.patterns), m.first[0]+len(m.patterns))
	labels := m.labels[len(m.labels)-st.Labels:]
	if i := slices.IndexFunc(labels, func(l Label) bool { return l.TaskID >= known }); i >= 0 {
		return api.SliceStats{}, fmt.Errorf("server: %v label names pattern %d of %d", key, labels[i].TaskID, known)
	}
	st.Deduped = len(m.patterns) + len(m.reports) + len(m.labels) - st.Patterns - st.Reports - st.Labels
	return st, nil
}

// applyMoveLocked applies the entries of m its check counted in st, the last
// of each kind, and moves the cursor past the block. Requires s.mu held.
func (s *Store) applyMoveLocked(m *moveBlock, st api.SliceStats) {
	key := moveKey{m.source, m.segment}
	cur := s.received[key]
	for _, p := range m.patterns[len(m.patterns)-st.Patterns:] {
		p.ID = len(s.patterns)
		s.patterns = append(s.patterns, p)
		cur.patterns = append(cur.patterns, p.ID)
	}
	for _, e := range m.reports[len(m.reports)-st.Reports:] {
		s.reports.add(e)
	}
	for _, l := range m.labels[len(m.labels)-st.Labels:] {
		l.TaskID = cur.patterns[l.TaskID]
		s.labels = append(s.labels, l)
	}
	cur.reports = max(cur.reports, m.first[1]+len(m.reports))
	cur.labels = max(cur.labels, m.first[2]+len(m.labels))
	if s.received == nil {
		s.received = map[moveKey]moveCursor{}
	}
	s.received[key] = cur
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
// GET exports a move from this shard. Two filters are supported:
//   - ?segments=a,b,c — export exactly these segments;
//   - ?owner=X&members=a,b,c — export the segments a ring over
//     members assigns to X (the requester dictates the target ring, so a
//     rebalance can move under the post-change membership before this shard
//     has been told about it).
//
// POST applies a move; see applyMove. Both speak FrameContentType only.
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
			rg := ring.New(strings.Split(q.Get("members"), ","), 0)
			owned = func(seg string) bool { return rg.Owner(seg) == owner }
		} else {
			api.WriteError(w, http.StatusBadRequest, errors.New("need ?segments= or ?owner=&members="))
			return
		}
		moves := s.store.exportMove(s.cluster.self, func(seg string) string {
			if owned(seg) {
				return "requester"
			}
			return ""
		}, s.store.chunkBudget())
		writeFrame(w, moves["requester"])
	case http.MethodPost:
		// A router of an older build sends its JSON slice here.
		if !api.RequireFrames(w, r, "a move") {
			return
		}
		body, ok := s.readBody(w, r, maxSliceBytes)
		if !ok {
			return
		}
		ctx, span := trace.StartChild(r.Context(), "cluster.apply_slice")
		stats, err := s.store.applyMove(ctx, body)
		span.SetAttr("patterns", stats.Patterns)
		span.SetAttr("reports", stats.Reports)
		span.SetAttr("labels", stats.Labels)
		span.SetAttr("deduped", stats.Deduped)
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
		s.cluster.ring.Store(ring.New(req.Members, 0))
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
