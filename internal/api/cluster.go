package api

// Shard↔router control messages: per-segment digests for drift detection,
// slices — the unit of rebalance — with their apply statistics, and the drop
// and membership requests. The shard serves them (internal/server) and the
// router's rebalance/reconcile machinery speaks them (internal/cluster).

import "sort"

// SegmentDigest summarizes one segment's resident state for cross-shard
// drift detection: raw volumes plus an order-sensitive digest of the fused
// result list, so two shards can compare a segment without shipping it.
type SegmentDigest struct {
	Reports     int    `json:"reports"`
	Patterns    int    `json:"patterns"`
	Labels      int    `json:"labels"`
	Fused       int    `json:"fused"`
	FusedDigest string `json:"fusedDigest,omitempty"`
}

// HasData reports whether the segment holds state that must live on its
// owner (reports or fused results). Patterns and labels left behind by a
// drop are tolerated residue — see server.Store.DropSegments.
func (d SegmentDigest) HasData() bool { return d.Reports > 0 || d.Fused > 0 }

// DigestResponse is GET /v1/cluster/digest.
type DigestResponse struct {
	Self     string                   `json:"self"`
	Members  []string                 `json:"members"`
	Segments map[string]SegmentDigest `json:"segments"`
	// WAL is the shard's log footprint; nil for an in-memory store.
	WAL *WALStatus `json:"wal,omitempty"`
}

// WALStatus is a shard's write-ahead-log footprint as the digest reports it.
type WALStatus struct {
	// Segments is the number of live segment files (including the active one).
	Segments int `json:"segments"`
	// ActiveBytes is the size of the active (tail) segment.
	ActiveBytes int64 `json:"activeBytes"`
	// LastSeq is the sequence number of the newest record (0 if none).
	LastSeq uint64 `json:"lastSeq"`
}

// SlicePattern is one exported mapping task. ID is the source shard's dense
// pattern id — the receiving shard assigns its own and labels are remapped.
type SlicePattern struct {
	ID      int        `json:"id"`
	Segment string     `json:"segment"`
	APs     []APReport `json:"aps,omitempty"`
	Key     string     `json:"key"`
}

// SliceReport is one exported vehicle report.
type SliceReport struct {
	Report Report `json:"report"`
	Key    string `json:"key"`
}

// SliceLabel is one exported label; TaskID references the source shard's
// pattern id and Segment carries the owning segment so a slice can be
// partitioned without the source's pattern table.
type SliceLabel struct {
	Label   Label  `json:"label"`
	Segment string `json:"segment"`
	Key     string `json:"key"`
}

// Slice is a segment-filtered export of one shard's durable state — the unit
// of rebalance. Fused results are deliberately absent: they are derived
// state, and the receiving owner re-aggregates after apply.
type Slice struct {
	Source   string         `json:"source"`
	Patterns []SlicePattern `json:"patterns"`
	Reports  []SliceReport  `json:"reports"`
	Labels   []SliceLabel   `json:"labels"`
}

// Empty reports whether the slice carries nothing.
func (sl Slice) Empty() bool {
	return len(sl.Patterns) == 0 && len(sl.Reports) == 0 && len(sl.Labels) == 0
}

// Segments returns the sorted set of segments the slice touches.
func (sl Slice) Segments() []string {
	set := map[string]bool{}
	for _, p := range sl.Patterns {
		set[p.Segment] = true
	}
	for _, r := range sl.Reports {
		set[r.Report.Segment] = true
	}
	for _, l := range sl.Labels {
		set[l.Segment] = true
	}
	out := make([]string, 0, len(set))
	for seg := range set {
		out = append(out, seg)
	}
	sort.Strings(out)
	return out
}

// SliceStats reports what one apply did.
type SliceStats struct {
	Patterns int `json:"patterns"`
	Reports  int `json:"reports"`
	Labels   int `json:"labels"`
	// Deduped counts items skipped because a previous apply already landed
	// them (matched by their deterministic slice key).
	Deduped int `json:"deduped"`
}

// Add accumulates other into s.
func (st *SliceStats) Add(other SliceStats) {
	st.Patterns += other.Patterns
	st.Reports += other.Reports
	st.Labels += other.Labels
	st.Deduped += other.Deduped
}

// DropRequest is POST /v1/cluster/drop: remove the named segments' reports
// and fused results after they have been streamed to their new owner.
type DropRequest struct {
	Segments []string `json:"segments"`
}

// MembersRequest is POST /v1/cluster/members: install a new membership ring.
type MembersRequest struct {
	Members []string `json:"members"`
}
