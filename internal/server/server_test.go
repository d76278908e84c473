package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"crowdwifi/internal/geo"
)

func newTestServer(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	store := NewStore(10)
	ts := httptest.NewServer(New(store))
	t.Cleanup(ts.Close)
	return store, ts
}

// addPattern registers an unkeyed pattern and returns its id.
func addPattern(tb testing.TB, s *Store, segment string, aps []APReport) int {
	tb.Helper()
	id, err := s.AddPatternKeyed(context.Background(), "", segment, aps)
	if err != nil {
		tb.Fatal(err)
	}
	return id
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestPatternLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/patterns", Pattern{
		Segment: "seg-1",
		APs:     []APReport{{X: 10, Y: 20, Credit: 3}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var created map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created["id"] != 0 {
		t.Fatalf("id = %d", created["id"])
	}

	var patterns []Pattern
	getJSON(t, ts.URL+"/v1/patterns?segment=seg-1", &patterns)
	if len(patterns) != 1 || patterns[0].APs[0].X != 10 {
		t.Fatalf("patterns = %+v", patterns)
	}
	// Unknown segment filters everything.
	var none []Pattern
	getJSON(t, ts.URL+"/v1/patterns?segment=zzz", &none)
	if len(none) != 0 {
		t.Fatalf("patterns = %+v", none)
	}
}

func TestPatternRequiresSegment(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/patterns", Pattern{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestTaskAssignmentBalances(t *testing.T) {
	store, ts := newTestServer(t)
	for i := 0; i < 4; i++ {
		addPattern(t, store, "s", []APReport{{X: float64(i)}})
	}
	// v1 labels tasks 0 and 1 heavily.
	for _, id := range []int{0, 1} {
		if err := store.AddLabels([]Label{{Vehicle: "other", TaskID: id, Value: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	var tasks []Pattern
	getJSON(t, ts.URL+"/v1/tasks?vehicle=v1&count=2", &tasks)
	if len(tasks) != 2 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	// Least-labelled tasks (2 and 3) come first.
	if tasks[0].ID != 2 || tasks[1].ID != 3 {
		t.Fatalf("assigned %d,%d, want 2,3", tasks[0].ID, tasks[1].ID)
	}
}

func TestTaskAssignmentSkipsAnswered(t *testing.T) {
	store, _ := newTestServer(t)
	addPattern(t, store, "s", nil)
	addPattern(t, store, "s", nil)
	if err := store.AddLabels([]Label{{Vehicle: "v1", TaskID: 0, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	tasks := store.AssignTasks("v1", 5)
	if len(tasks) != 1 || tasks[0].ID != 1 {
		t.Fatalf("tasks = %+v", tasks)
	}
}

func TestTasksRequiresVehicle(t *testing.T) {
	_, ts := newTestServer(t)
	resp := getJSON(t, ts.URL+"/v1/tasks", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp = getJSON(t, ts.URL+"/v1/tasks?vehicle=v&count=-2", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestLabelValidation(t *testing.T) {
	store, ts := newTestServer(t)
	addPattern(t, store, "s", nil)
	resp := postJSON(t, ts.URL+"/v1/labels", []Label{{Vehicle: "v", TaskID: 0, Value: 2}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad value accepted: %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/labels", []Label{{Vehicle: "v", TaskID: 99, Value: 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown task accepted: %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/labels", []Label{{Vehicle: "v", TaskID: 0, Value: -1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid label rejected: %d", resp.StatusCode)
	}
}

func TestReportValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/reports", Report{Vehicle: "", Segment: "s"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/reports", Report{Vehicle: "v", Segment: "s", APs: []APReport{{X: 1, Y: 2, Credit: 1}}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAggregateAndLookupFlow(t *testing.T) {
	store, ts := newTestServer(t)
	// Three vehicles report the same AP with small offsets; one reports a
	// far-off spurious AP.
	for i, x := range []float64{100, 104, 102} {
		if err := store.AddReport(Report{
			Vehicle: string(rune('a' + i)),
			Segment: "seg",
			APs:     []APReport{{X: x, Y: 50, Credit: 3}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/aggregate", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status = %d", resp.StatusCode)
	}
	var agg map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg["fusedAPs"] != 1 {
		t.Fatalf("fused = %d, want 1", agg["fusedAPs"])
	}

	var results []LookupResult
	getJSON(t, ts.URL+"/v1/lookup?xmin=0&ymin=0&xmax=200&ymax=100", &results)
	if len(results) != 1 {
		t.Fatalf("lookup = %+v", results)
	}
	if results[0].X < 100 || results[0].X > 104 {
		t.Fatalf("fused x = %v", results[0].X)
	}
	// Outside the box: nothing.
	var empty []LookupResult
	getJSON(t, ts.URL+"/v1/lookup?xmin=0&ymin=0&xmax=10&ymax=10", &empty)
	if len(empty) != 0 {
		t.Fatalf("lookup outside = %+v", empty)
	}
}

func TestLookupBadParams(t *testing.T) {
	_, ts := newTestServer(t)
	resp := getJSON(t, ts.URL+"/v1/lookup?xmin=abc", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestReliabilityInference(t *testing.T) {
	store, ts := newTestServer(t)
	// 12 tasks; "good" agrees with two honest peers, "spam" answers
	// randomly-ish (alternating).
	for i := 0; i < 12; i++ {
		addPattern(t, store, "s", nil)
	}
	truth := []int{1, -1, 1, 1, -1, 1, -1, -1, 1, -1, 1, 1}
	for i, z := range truth {
		for _, v := range []string{"good1", "good2", "good3"} {
			if err := store.AddLabels([]Label{{Vehicle: v, TaskID: i, Value: z}}); err != nil {
				t.Fatal(err)
			}
		}
		spam := 1
		if i%2 == 0 {
			spam = -1
		}
		if err := store.AddLabels([]Label{{Vehicle: "spam", TaskID: i, Value: spam}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Aggregate(); err != nil {
		t.Fatal(err)
	}
	var rel map[string]float64
	getJSON(t, ts.URL+"/v1/reliability", &rel)
	if rel["good1"] <= rel["spam"] {
		t.Fatalf("reliability does not separate: good1=%v spam=%v", rel["good1"], rel["spam"])
	}
}

func TestAggregateWeighsSpammersDown(t *testing.T) {
	store, _ := newTestServer(t)
	// Reliability priors via labels: good vehicles agree, spammer disagrees.
	for i := 0; i < 10; i++ {
		addPattern(t, store, "s", nil)
		for _, v := range []string{"g1", "g2", "g3"} {
			if err := store.AddLabels([]Label{{Vehicle: v, TaskID: i, Value: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.AddLabels([]Label{{Vehicle: "spam", TaskID: i, Value: -1}}); err != nil {
			t.Fatal(err)
		}
	}
	// Reports: good vehicles put the AP near x=100; the spammer claims x=160
	// (still within one merge radius chain? no — 60 m apart, separate cluster).
	for _, v := range []string{"g1", "g2", "g3"} {
		if err := store.AddReport(Report{Vehicle: v, Segment: "seg", APs: []APReport{{X: 100, Y: 50}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.AddReport(Report{Vehicle: "spam", Segment: "seg", APs: []APReport{{X: 104, Y: 50}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Aggregate(); err != nil {
		t.Fatal(err)
	}
	results := store.Lookup(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 200, Y: 100}))
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	// The spammer's 104 pulls the unweighted mean to 101; with reliability
	// weighting it must stay closer to 100.
	if results[0].X > 101 {
		t.Fatalf("fused x = %v, spammer not down-weighted", results[0].X)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/labels", "/v1/reports", "/v1/aggregate"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/lookup?xmin=0&ymin=0&xmax=1&ymax=1", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST lookup = %d, want 405", resp.StatusCode)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	// The store is documented as safe for concurrent use: hammer it from
	// multiple goroutines under -race (the suite runs with the race detector
	// in CI via `go test -race`).
	store := NewStore(10)
	for i := 0; i < 5; i++ {
		addPattern(t, store, "s", nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("veh-%d", g)
			for i := 0; i < 50; i++ {
				_ = store.AddReport(Report{Vehicle: id, Segment: "s",
					APs: []APReport{{X: float64(i), Y: float64(g)}}})
				_ = store.AddLabels([]Label{{Vehicle: id, TaskID: i % 5, Value: 1}})
				store.AssignTasks(id, 3)
				store.Reliability()
				if i%10 == 0 {
					_, _ = store.Aggregate()
				}
				store.Lookup(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100}))
			}
		}(g)
	}
	wg.Wait()
	if _, err := store.Aggregate(); err != nil {
		t.Fatal(err)
	}
}
