package obs

import (
	"encoding/json"
	"net/http"
	"sync"
)

// Health tracks process liveness and readiness for /healthz and /readyz.
// Liveness is unconditional (the process answering at all is the signal);
// readiness flips off while the server cannot usefully take traffic — WAL
// recovery/replay at startup, or the final snapshot during SIGTERM shutdown.
// A degraded mode (read-only, recovering) is a separate axis:
// the server is still serving, so /readyz stays 200 but carries the mode in
// its body — orchestrators keep routing, operators see the degradation.
// A nil *Health accepts every method as a no-op and reports not ready.
type Health struct {
	mu     sync.Mutex
	ready  bool
	reason string
	mode   string
}

// NewHealth returns a Health that starts not ready ("starting").
func NewHealth() *Health {
	return &Health{reason: "starting"}
}

// SetReady marks the process ready to serve traffic.
func (h *Health) SetReady() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.ready, h.reason = true, ""
	h.mu.Unlock()
}

// SetNotReady marks the process unable to serve traffic, with a reason
// surfaced on /readyz (e.g. "wal replay", "shutdown snapshot").
func (h *Health) SetNotReady(reason string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.ready, h.reason = false, reason
	h.mu.Unlock()
}

// SetMode records the server's degradation mode ("healthy", "read-only",
// "recovering"), surfaced in the /readyz body without changing the readiness
// verdict.
func (h *Health) SetMode(mode string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.mode = mode
	h.mu.Unlock()
}

// Mode returns the recorded degradation mode ("" when never set).
func (h *Health) Mode() string {
	if h == nil {
		return ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mode
}

// Ready reports the current readiness state and its reason when not ready.
func (h *Health) Ready() (bool, string) {
	if h == nil {
		return false, "no health tracker"
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ready, h.reason
}

// LiveHandler serves /healthz: always 200 while the process can answer.
func (h *Health) LiveHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
}

// ReadyHandler serves /readyz: 200 when ready, 503 with the reason when not.
// A degraded-but-serving server answers 200 with its mode in the body — the
// distinction matters because a 503 would make orchestrators stop routing to
// a server that is, by design, still answering lookups.
func (h *Health) ReadyHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ready, reason := h.Ready()
		mode := h.Mode()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		body := map[string]string{}
		if mode != "" {
			body["mode"] = mode
		}
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
			body["status"], body["reason"] = "not ready", reason
			_ = json.NewEncoder(w).Encode(body)
			return
		}
		if mode != "" && mode != "healthy" {
			body["status"] = "degraded"
		} else {
			body["status"] = "ready"
		}
		_ = json.NewEncoder(w).Encode(body)
	})
}

// MountHealth attaches /healthz and /readyz to mux.
func MountHealth(mux *http.ServeMux, h *Health) {
	mux.Handle("/healthz", h.LiveHandler())
	mux.Handle("/readyz", h.ReadyHandler())
}
