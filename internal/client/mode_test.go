package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/server"
)

// modeSequenceServer answers each request with the next scripted
// (status, mode) pair, repeating the last one when the script runs out.
func modeSequenceServer(t *testing.T, script []struct {
	status int
	mode   string
}) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(calls.Add(1)) - 1
		if i >= len(script) {
			i = len(script) - 1
		}
		step := script[i]
		if step.mode != "" {
			w.Header().Set(api.ModeHeader, step.mode)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(step.status)
		_, _ = w.Write([]byte(`{"status":"accepted"}`))
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func fastRetry() *retry.Doer {
	return retry.NewDoer(nil, retry.Policy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})
}

// TestCrowdVehicleModeCapturedAcrossRetries pins the capture point: the
// recorder sees every attempt, so after a retried upload the vehicle
// reports the mode of the attempt that finally answered — a shed
// "read-only" followed by a successful "healthy" must end at "healthy".
func TestCrowdVehicleModeCapturedAcrossRetries(t *testing.T) {
	ts, calls := modeSequenceServer(t, []struct {
		status int
		mode   string
	}{
		{http.StatusServiceUnavailable, "read-only"},
		{http.StatusCreated, "healthy"},
	})
	v, err := NewCrowdVehicle("veh-mode", ts.URL, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	v.HTTP = fastRetry()
	if got := v.LastServerMode(); got != "" {
		t.Fatalf("mode before any request = %q, want empty", got)
	}
	err = v.UploadReport(context.Background(), api.Report{
		Vehicle: "veh-mode", Segment: "s", APs: []api.APReport{{X: 1, Y: 1, Credit: 1}},
	})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d attempts, want 2", n)
	}
	if got := v.LastServerMode(); got != "healthy" {
		t.Errorf("LastServerMode = %q, want \"healthy\" from the final attempt", got)
	}
}

// TestCrowdVehicleModeOnExhaustedRetries: when every attempt is shed, the
// vehicle still learns the server's mode from the terminal failure.
func TestCrowdVehicleModeOnExhaustedRetries(t *testing.T) {
	ts, _ := modeSequenceServer(t, []struct {
		status int
		mode   string
	}{
		{http.StatusServiceUnavailable, "read-only"},
	})
	v, err := NewCrowdVehicle("veh-mode", ts.URL, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	v.HTTP = fastRetry()
	err = v.UploadReport(context.Background(), api.Report{
		Vehicle: "veh-mode", Segment: "s", APs: []api.APReport{{X: 1, Y: 1, Credit: 1}},
	})
	if err == nil {
		t.Fatal("upload should fail after exhausted retries")
	}
	if got := v.LastServerMode(); got != "read-only" {
		t.Errorf("LastServerMode = %q, want \"read-only\"", got)
	}
}

// TestCrowdVehicleModeKeepsLastSeenWhenHeaderAbsent: a response without the
// header (overload control disabled server-side) must not clobber the last
// observation.
func TestCrowdVehicleModeKeepsLastSeenWhenHeaderAbsent(t *testing.T) {
	ts, _ := modeSequenceServer(t, []struct {
		status int
		mode   string
	}{
		{http.StatusCreated, "overloaded"},
		{http.StatusCreated, ""},
	})
	v, err := NewCrowdVehicle("veh-mode", ts.URL, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	rep := api.Report{Vehicle: "veh-mode", Segment: "s", APs: []api.APReport{{X: 1, Y: 1, Credit: 1}}}
	if err := v.UploadReport(context.Background(), rep); err != nil {
		t.Fatal(err)
	}
	if err := v.UploadReport(context.Background(), rep); err != nil {
		t.Fatal(err)
	}
	if got := v.LastServerMode(); got != "overloaded" {
		t.Errorf("LastServerMode = %q, want sticky \"overloaded\"", got)
	}
}

// TestUserVehicleModeCaptured: the read-side client records modes too.
func TestUserVehicleModeCaptured(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.ModeHeader, "recovering")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("[]\n"))
	}))
	t.Cleanup(ts.Close)
	u := NewUserVehicle(ts.URL)
	if _, err := u.Lookup(context.Background(), geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1, Y: 1}}); err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if got := u.LastServerMode(); got != "recovering" {
		t.Errorf("LastServerMode = %q, want \"recovering\"", got)
	}
}

// TestModeHeaderSetOnSuccessWithOverloadEnabled is the server-side half of
// the contract: with overload control on, even plain 2xx responses carry
// the mode header (it used to ride only on sheds).
func TestModeHeaderSetOnSuccessWithOverloadEnabled(t *testing.T) {
	store := server.NewStore(12)
	ts := httptest.NewServer(server.New(store, server.WithOverload(overload.Options{})))
	t.Cleanup(ts.Close)
	v, err := NewCrowdVehicle("veh-mode", ts.URL, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	err = v.UploadReport(context.Background(), api.Report{
		Vehicle: "veh-mode", Segment: "s", APs: []api.APReport{{X: 1, Y: 1, Credit: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.LastServerMode(); got != "healthy" {
		t.Errorf("LastServerMode = %q, want \"healthy\" on a 2xx", got)
	}
}
