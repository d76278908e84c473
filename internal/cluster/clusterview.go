package cluster

import (
	"encoding/json"
	"net/http"
	"time"

	"crowdwifi/internal/api"
)

// ShardView is one shard's slice of the /debug/cluster document. Breaker is
// the state of the router's breaker for this shard (closed, open,
// half_open). OwnedSegs counts the resident segments the ring assigns to
// this shard; a resident segment it assigns elsewhere is drift, not
// ownership.
type ShardView struct {
	Reachable bool                         `json:"reachable"`
	Mode      string                       `json:"mode,omitempty"`
	Breaker   string                       `json:"breaker"`
	Error     string                       `json:"error,omitempty"`
	Segments  map[string]api.SegmentDigest `json:"segments,omitempty"`
	WAL       *api.WALStatus               `json:"wal,omitempty"`
	OwnedSegs int                          `json:"ownedSegments"`
}

// ClusterView is the /debug/cluster document: ring ownership, per-shard
// digests and modes, WAL depth, and the drift a reconcile pass would
// repair, in one JSON fetch.
type ClusterView struct {
	GeneratedAt time.Time            `json:"generatedAt"`
	Members     []string             `json:"members"`
	Shards      map[string]ShardView `json:"shards"`
	Drift       []Move               `json:"drift"`
}

// ClusterHandler returns the router's /debug/cluster surface: it fans the
// digest endpoint out to every shard and combines the answers with the
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
			Drift:       []Move{},
		}
		modes := rt.metrics.modesSnapshot()
		rg := rt.ring.Load()
		for _, res := range rt.scatter(r.Context(), http.MethodGet, api.RouteClusterDigest, "") {
			sv := ShardView{Mode: modes[res.id], Breaker: rt.peers[res.id].breaker.State().String()}
			var d api.DigestResponse
			err := res.err
			if err == nil {
				err = json.Unmarshal(res.body, &d)
			}
			if err != nil {
				sv.Error = err.Error()
			} else {
				var moves []Move
				sv.Reachable, sv.Segments, sv.WAL = true, d.Segments, d.WAL
				sv.OwnedSegs, moves = drift(rg.Owner, res.id, d.Segments)
				view.Drift = append(view.Drift, moves...)
			}
			view.Shards[res.id] = sv
		}
		sortMoves(view.Drift)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}
