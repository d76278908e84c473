package api

// Shard↔router control messages: per-segment digests for drift detection,
// the statistics of a move's apply, and the drop and membership requests. The
// shard serves them (internal/server) and the router's rebalance/reconcile
// machinery speaks them (internal/cluster). A move itself is binary: a stream
// of FrameContentType frames in the store's own record encoding
// (internal/server/codec.go).

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

// SliceStats reports what one apply did.
type SliceStats struct {
	Patterns int `json:"patterns"`
	Reports  int `json:"reports"`
	Labels   int `json:"labels"`
	// Deduped counts entries skipped because a previous apply already landed
	// them (matched by their position in the source's segment).
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
