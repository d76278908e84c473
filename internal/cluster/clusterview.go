package cluster

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"crowdwifi/internal/api"
)

// DriftEntry is one segment found resident on a shard the router's ring does
// not consider its owner — the residue a reconcile pass repairs.
type DriftEntry struct {
	Segment  string `json:"segment"`
	Resident string `json:"resident"`
	Owner    string `json:"owner"`
}

// ShardView is one shard's slice of the /debug/cluster document. OwnedSegs
// counts the resident segments the ring assigns to this shard; a resident
// segment it assigns elsewhere is drift, not ownership.
type ShardView struct {
	Reachable bool                          `json:"reachable"`
	Mode      string                        `json:"mode,omitempty"`
	Error     string                        `json:"error,omitempty"`
	Segments  map[string]api.SegmentDigest  `json:"segments,omitempty"`
	WAL       json.RawMessage               `json:"wal,omitempty"`
	Quantiles map[string]map[string]float64 `json:"quantiles,omitempty"`
	OwnedSegs int                           `json:"ownedSegments"`
}

// ClusterView is the /debug/cluster document: ring ownership, per-shard
// digests and modes, WAL depth, windowed latency quantiles, and reconcile
// drift, in one JSON fetch.
type ClusterView struct {
	GeneratedAt time.Time            `json:"generatedAt"`
	Members     []string             `json:"members"`
	Shards      map[string]ShardView `json:"shards"`
	Drift       []DriftEntry         `json:"drift"`
}

// shardVars is the subset of a shard's /debug/vars the cluster view reads.
type shardVars struct {
	Quantiles map[string]map[string]float64 `json:"crowdwifi_histogram_quantiles"`
}

// shardDigest mirrors api.DigestResponse with the WAL block kept raw.
type shardDigest struct {
	Self     string                       `json:"self"`
	Segments map[string]api.SegmentDigest `json:"segments"`
	WAL      json.RawMessage              `json:"wal"`
}

// ClusterHandler returns the router's /debug/cluster surface: it fans the
// digest and vars endpoints out to every shard and combines them with the
// router's ring and last-seen shard modes.
func (rt *Router) ClusterHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		view := ClusterView{
			GeneratedAt: time.Now(),
			Members:     rt.Members(),
			Shards:      map[string]ShardView{},
			Drift:       []DriftEntry{},
		}
		modes := rt.metrics.modesSnapshot()

		digests := rt.fanOutDebug(r.Context(), api.RouteClusterDigest)
		vars := rt.fanOutDebug(r.Context(), "/debug/vars")
		varsByShard := map[string][]byte{}
		for _, f := range vars {
			if f.err == nil && !f.notFound {
				varsByShard[f.id] = f.body
			}
		}
		rg := rt.ring.Load()
		for _, f := range digests {
			sv := ShardView{Reachable: f.err == nil && !f.notFound, Mode: modes[f.id]}
			if f.err != nil {
				sv.Error = f.err.Error()
			}
			if sv.Reachable {
				var d shardDigest
				if err := json.Unmarshal(f.body, &d); err != nil {
					sv.Error = "bad digest: " + err.Error()
					sv.Reachable = false
				} else {
					sv.Segments = d.Segments
					sv.WAL = d.WAL
					for seg, dig := range d.Segments {
						if !dig.HasData() {
							continue
						}
						if owner := rg.Owner(seg); owner == f.id {
							sv.OwnedSegs++
						} else if owner != "" {
							view.Drift = append(view.Drift, DriftEntry{
								Segment: seg, Resident: f.id, Owner: owner,
							})
						}
					}
				}
			}
			if b, ok := varsByShard[f.id]; ok {
				var v shardVars
				if err := json.Unmarshal(b, &v); err == nil {
					sv.Quantiles = v.Quantiles
				}
			}
			view.Shards[f.id] = sv
		}
		sort.Slice(view.Drift, func(i, j int) bool {
			if view.Drift[i].Segment != view.Drift[j].Segment {
				return view.Drift[i].Segment < view.Drift[j].Segment
			}
			return view.Drift[i].Resident < view.Drift[j].Resident
		})
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}
