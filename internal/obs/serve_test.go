package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeDrainsInFlight: ending ctx drains. A request in flight finishes
// with its full answer, Serve waits for it, and health is left not ready
// with reason "shutdown".
func TestServeDrainsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		_, _ = io.WriteString(w, "done")
	})
	health := NewHealth()
	health.SetReady()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, ln, h, health, Discard) }()

	answer := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			answer <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		answer <- string(b)
	}()
	<-entered
	cancel()
	for {
		if ready, _ := health.Ready(); !ready {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if got := <-answer; got != "done" {
		t.Fatalf("in-flight request answered %q, want done", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v after a clean drain", err)
	}
	if ready, reason := health.Ready(); ready || reason != "shutdown" {
		t.Fatalf("health ready=%v reason=%q, want not ready for shutdown", ready, reason)
	}
}

// TestServeReturnsListenerError: a listener that fails ends Serve with its
// error, though ctx never ends.
func TestServeReturnsListenerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	served := make(chan error, 1)
	go func() { served <- Serve(context.Background(), ln, http.NotFoundHandler(), nil, Discard) }()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve on a closed listener returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve on a closed listener did not return")
	}
}
