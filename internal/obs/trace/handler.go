package trace

import (
	"encoding/json"
	"net/http"
	"strings"
)

// index is the /debug/traces JSON document.
type index struct {
	Recent  []TraceSummary            `json:"recent"`
	Slowest map[string][]TraceSummary `json:"slowest"`
	Errors  []TraceSummary            `json:"errors"`
}

// Handler serves the store as JSON: the bare path lists recent, slowest-per-
// endpoint, and error traces; "<path>/{id}" returns this process's spans of
// one trace.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		id := ""
		if i := strings.LastIndexByte(strings.TrimSuffix(r.URL.Path, "/"), '/'); i >= 0 {
			tail := strings.TrimSuffix(r.URL.Path, "/")[i+1:]
			if tail != "traces" {
				id = tail
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id == "" {
			_ = enc.Encode(index{Recent: s.Recent(), Slowest: s.Slowest(), Errors: s.Errors()})
			return
		}
		tr, ok := s.Get(id)
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			_ = enc.Encode(map[string]string{"error": "trace not found", "id": id})
			return
		}
		_ = enc.Encode(tr)
	})
}

// Mount attaches the trace endpoints to mux: /debug/traces (recent +
// slowest + errors) and /debug/traces/{id} (this process's spans of one
// trace). Every process, shard or router, mounts its own store here.
func Mount(mux *http.ServeMux, s *Store) {
	if s == nil {
		return
	}
	h := s.Handler()
	mux.Handle("/debug/traces", h)
	mux.Handle("/debug/traces/", h)
}
