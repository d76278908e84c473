package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/geo"
)

// TestListEndpointsEncodeEmptyAsArray: list-returning endpoints must encode
// an empty result as [] — a null breaks clients that range over the
// response without a nil check.
func TestListEndpointsEncodeEmptyAsArray(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{
		"/v1/tasks?vehicle=v1&count=5",
		"/v1/lookup?xmin=0&ymin=0&xmax=100&ymax=100",
		"/v1/patterns?segment=none",
	} {
		resp := getJSON(t, ts.URL+path, nil)
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(string(body)); got != "[]" {
			t.Errorf("GET %s = %q, want []", path, got)
		}
	}
}

// TestBatchResultsEncodeEmptyAsArray: the batch response's status vector
// obeys the same []-not-null contract as the list endpoints — in JSON and
// on the binary frame path, where an empty vector must decode to a non-nil
// empty slice.
func TestBatchResultsEncodeEmptyAsArray(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/reports/batch", "application/json",
		strings.NewReader(`{}`)) // entries omitted entirely, not just empty
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(body)); got != `{"results":[]}` {
		t.Errorf("empty batch = %q, want {\"results\":[]}", got)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports/batch", strings.NewReader(""))
	req.Header.Set("Content-Type", FrameContentType)
	req.Header.Set("Accept", FrameContentType)
	fresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	frame, err := io.ReadAll(fresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeBatchStatusFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if results == nil || len(results) != 0 {
		t.Errorf("binary empty batch decodes to %#v, want non-nil empty slice", results)
	}
}

// TestLookupFrameEmptyAnswerKeepsContract: an empty lookup answer on the
// binary path mirrors the JSON [] contract end to end over HTTP.
func TestLookupFrameEmptyAnswerKeepsContract(t *testing.T) {
	_, ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodGet,
		ts.URL+"/v1/lookup?xmin=0&ymin=0&xmax=100&ymax=100", nil)
	req.Header.Set("Accept", FrameContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, FrameContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	results, err := api.DecodeLookupFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if results == nil || len(results) != 0 {
		t.Errorf("empty lookup decodes to %#v, want non-nil empty slice", results)
	}
}

// TestLookupOrderingDeterministic: lookup results are sorted by position so
// repeated queries (and recovered servers) serve byte-identical lists.
func TestLookupOrderingDeterministic(t *testing.T) {
	store := NewStore(10)
	store.view.Store(newView(map[string][]LookupResult{
		"s1": {{X: 5, Y: 1, Weight: 1}, {X: 2, Y: 9, Weight: 1}},
		"s2": {{X: 2, Y: 3, Weight: 2}, {X: 2, Y: 3, Weight: 5}},
	}, nil))
	got := store.Lookup(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100}))
	want := []LookupResult{{X: 2, Y: 3, Weight: 5}, {X: 2, Y: 3, Weight: 2}, {X: 2, Y: 9, Weight: 1}, {X: 5, Y: 1, Weight: 1}}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v (full: %+v)", i, got[i], want[i], got)
		}
	}
}
