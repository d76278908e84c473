package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func checkStatus(t *testing.T, h http.Handler, want int) map[string]string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != want {
		t.Fatalf("status %d, want %d", rec.Code, want)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	return body
}

func TestHealthLifecycle(t *testing.T) {
	h := NewHealth()

	// Fresh: alive but not ready (startup/replay in progress).
	checkStatus(t, h.LiveHandler(), http.StatusOK)
	body := checkStatus(t, h.ReadyHandler(), http.StatusServiceUnavailable)
	if body["reason"] != "starting" {
		t.Fatalf("initial reason %q, want starting", body["reason"])
	}

	h.SetReady()
	checkStatus(t, h.ReadyHandler(), http.StatusOK)
	if ready, _ := h.Ready(); !ready {
		t.Fatal("Ready() false after SetReady")
	}

	// Shutdown snapshot: readiness drops, liveness stays.
	h.SetNotReady("shutdown snapshot")
	checkStatus(t, h.LiveHandler(), http.StatusOK)
	body = checkStatus(t, h.ReadyHandler(), http.StatusServiceUnavailable)
	if body["reason"] != "shutdown snapshot" {
		t.Fatalf("shutdown reason %q", body["reason"])
	}
}

func TestHealthNilSafe(t *testing.T) {
	var h *Health
	h.SetReady()
	h.SetNotReady("x")
	if ready, _ := h.Ready(); ready {
		t.Fatal("nil health reports ready")
	}
}

func TestMountHealth(t *testing.T) {
	h := NewHealth()
	h.SetReady()
	srv := httptest.NewServer(Debug(nil, nil, h))
	defer srv.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
}
