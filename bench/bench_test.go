package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/server"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{200, 95, true},
		{999, 95, true}, // 1% of 999 is 9.99 samples
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs, "ms"); s.P50 != 500 || s.TailP != 99 || s.Tail != 990 || s.N != 1000 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, _, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
}

// stallingHandler answers at once except while its lock is held: 300 ms in
// every 2 s, the way an aggregation cycle holds the store mutex.
func stallingHandler(t *testing.T) http.Handler {
	var mu sync.Mutex
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		first := time.After(500 * time.Millisecond)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-first:
			case <-tick.C:
			case <-stop:
				return
			}
			mu.Lock()
			time.Sleep(300 * time.Millisecond)
			mu.Unlock()
		}
	}()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		mu.Unlock()
	})
}

func gets(url string) func() op {
	conn := newConn()
	return func() op {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		return func() (outcome, int) {
			out, _ := roundTrip(conn, req, http.StatusOK)
			return out, 1
		}
	}
}

// The same periodic stall through both loops: timed from when each request
// was due, the open loop's p99 is the stall; the closed loop sends one request
// into each stall and its p99 never notices.
func TestOpenLoopSeesTheStallAClosedLoopHides(t *testing.T) {
	const window = 4 * time.Second
	openSrv := httptest.NewServer(stallingHandler(t))
	defer openSrv.Close()
	closedSrv := httptest.NewServer(stallingHandler(t))
	defer closedSrv.Close()
	open := &lane{kind: "get", rate: 200, next: gets(openSrv.URL)}
	closed := &lane{kind: "get", next: gets(closedSrv.URL)}
	runLanes([]*lane{open, closed}, 0, window)

	o, c := open.stats(), closed.stats()
	if o.Attempted != 800 || o.Failed+o.Refused != 0 {
		t.Fatalf("open loop attempted %d (want 800 = 200/s x 4 s), failed %d", o.Attempted, o.Failed+o.Refused)
	}
	p99 := percentile(o.Latency.Sorted, 99)
	if p99 < 200 || p99 > 400 {
		t.Errorf("open-loop p99 from due time = %.1f ms, want about the 300 ms stall", p99)
	}
	if o.Latency.P50 > 20 {
		t.Errorf("open-loop p50 = %.1f ms, want an unstalled round trip", o.Latency.P50)
	}
	if o.LateP99 > 20 {
		t.Errorf("generator ran %.1f ms late at p99", o.LateP99)
	}
	if c.Attempted < 2000 {
		t.Fatalf("closed loop made only %d requests", c.Attempted)
	}
	if p99 := percentile(c.Latency.Sorted, 99); p99 > 50 {
		t.Errorf("closed-loop p99 = %.1f ms: it should not see a stall that hit 2 of %d requests", p99, c.Attempted)
	}
}

func TestReferenceLookupOrderAndEdges(t *testing.T) {
	all := []server.LookupResult{
		{X: 5, Y: 5, Weight: 1},
		{X: 1, Y: 9, Weight: 1},
		{X: 1, Y: 2, Weight: 0.5},
		{X: 1, Y: 2, Weight: 2},
		{X: 10, Y: 10, Weight: 1}, // on the corner: edges are inside
		{X: 10.0001, Y: 5, Weight: 1},
		{X: 0.9999, Y: 5, Weight: 1},
	}
	area := geo.Rect{Min: geo.Point{X: 1, Y: 2}, Max: geo.Point{X: 10, Y: 10}}
	got := refLookup(all, area)
	want := []server.LookupResult{{X: 1, Y: 2, Weight: 2}, {X: 1, Y: 2, Weight: 0.5}, {X: 1, Y: 9, Weight: 1}, {X: 5, Y: 5, Weight: 1}, {X: 10, Y: 10, Weight: 1}}
	if len(got) != len(want) {
		t.Fatalf("refLookup kept %d, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("refLookup[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	empty := geo.Rect{Min: geo.Point{X: 100, Y: 100}, Max: geo.Point{X: 101, Y: 101}}
	if body := refLookupBody(all, empty); string(body) != "[]\n" {
		t.Errorf("empty answer encodes as %q, want []", body)
	}
}

// The reference agrees, byte for byte, with a real server over generated
// state — and a corrupted reference answer fails the check and the run.
func TestReferenceLookupAgainstServerAndCorruption(t *testing.T) {
	w := newWorld(7, 16, 50, 0)
	store := server.NewStore(mergeRadius)
	r := rng.New(7).Split(streamPreload)
	for i := 0; i < 200; i++ {
		if err := store.AddReport(w.report(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Aggregate(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(store))
	defer srv.Close()
	conn := newConn()
	fetch := func(a geo.Rect) ([]byte, error) { return fetchLookup(conn, srv.URL, a) }

	whole, err := fetch(w.wholeMap())
	if err != nil {
		t.Fatal(err)
	}
	var all []server.LookupResult
	if err := json.Unmarshal(whole, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) < 100 {
		t.Fatalf("only %d fused APs", len(all))
	}
	cr := rng.New(7).Split(streamCheck)
	areas := []geo.Rect{w.wholeMap()}
	for i := 0; i < 50; i++ {
		areas = append(areas, w.lookupRect(cr))
	}
	if err := checkLookups(all, areas, fetch); err != nil {
		t.Fatalf("reference disagrees with the server: %v", err)
	}

	all[len(all)/2].Weight += 0.5
	err = checkLookups(all, areas, fetch)
	if err == nil {
		t.Fatal("a corrupted reference answer passed the check")
	}
	res := &result{Attempted: 1}
	res.check("lookups_match_reference", err)
	if res.finish(); res.Correct {
		t.Error("a failed check left the run correct; main exits 0 only on correct runs")
	}
}

func TestDriveGate(t *testing.T) {
	run := func(found int, err float64) []driveResult {
		return []driveResult{{8, 2}, {8, 3}, {7, 2.5}, {9, 4.5}, {8, 3}, {found, err}}
	}
	for name, tc := range map[string]struct {
		done []driveResult
		ok   bool
	}{
		"as measured":                {run(8, 2.9), true},
		"one hard drive":             {run(7, 22), true},
		"too few drives":             {run(8, 2.9)[:5], false},
		"one AP lost on every drive": {[]driveResult{{7, 3}, {7, 3}, {7, 3}, {7, 3}, {7, 3}, {6, 3}}, false},
		"one drive lost three":       {run(5, 2.9), false},
		"twice as far off":           {[]driveResult{{8, 6}, {8, 5.5}, {8, 7}, {8, 6}, {8, 4}, {8, 9}}, false},
	} {
		if err := checkDrives(tc.done); (err == nil) != tc.ok {
			t.Errorf("%s: checkDrives = %v, want ok %v", name, err, tc.ok)
		}
	}
}

func TestCountersDelta(t *testing.T) {
	const before = `# HELP crowdwifi_wal_fsyncs_total fsyncs
# TYPE crowdwifi_wal_fsyncs_total counter
crowdwifi_wal_fsyncs_total 10
crowdwifi_admission_shed_total{family="upload",reason="limit"} 1
crowdwifi_admission_shed_total{family="lookup",reason="a b}c"} 2
crowdwifi_http_request_duration_seconds_bucket{route="/v1/reports",le="0.005"} 7
crowdwifi_http_request_duration_seconds_sum{route="/v1/reports"} 0.25
garbage line without a value
`
	after := strings.NewReplacer("_total 10", "_total 25", `"limit"} 1`, `"limit"} 4`).Replace(before) +
		"crowdwifi_new_total 3\n"
	b, a := parseCounters(strings.NewReader(before)), parseCounters(strings.NewReader(after))
	if b["crowdwifi_admission_shed_total"] != 3 {
		t.Errorf("label sets not summed: %v", b["crowdwifi_admission_shed_total"])
	}
	if b["crowdwifi_http_request_duration_seconds_sum"] != 0.25 {
		t.Errorf("sum series = %v", b["crowdwifi_http_request_duration_seconds_sum"])
	}
	if d := delta(b, a, "crowdwifi_wal_fsyncs_total"); d == nil || *d != 15 {
		t.Errorf("fsync delta = %v, want 15", d)
	}
	if d := delta(b, a, "crowdwifi_admission_shed_total"); d == nil || *d != 3 {
		t.Errorf("shed delta = %v, want 3", d)
	}
	// A counter one scrape lacks is null, not zero and not a failure.
	if d := delta(b, a, "crowdwifi_new_total"); d != nil {
		t.Errorf("delta of a counter missing before = %v, want nil", *d)
	}
	if d := delta(b, a, "crowdwifi_renamed_total"); d != nil {
		t.Errorf("delta of an unknown counter = %v, want nil", *d)
	}
}

func TestWorldIsAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed uint64) []byte {
		w := newWorld(seed, ingestSegments, ingestVehicles, 0.1)
		r := rng.New(seed).Split(streamLaneA)
		var reps []server.Report
		for i := 0; i < 20; i++ {
			reps = append(reps, w.report(r))
		}
		ps, ls := w.patternsAndLabels(seed, 50, 5)
		out, _ := json.Marshal([]any{reps, ps, ls, w.lookupRect(r)})
		return out
	}
	if !bytes.Equal(draw(3), draw(3)) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(draw(3), draw(4)) {
		t.Error("different seeds gave the same inputs")
	}
	// No vehicle answers the same task twice: the store would keep only the
	// first answer and the label volume would be a lie.
	w := newWorld(1, mixedSegments, mixedVehicles, mixedSpammers)
	_, ls := w.patternsAndLabels(1, mixedPatterns, mixedLabelsPerVehicle)
	seen := map[[2]string]bool{}
	for _, l := range ls {
		k := [2]string{l.Vehicle, strconv.Itoa(l.TaskID)}
		if seen[k] {
			t.Fatalf("vehicle %s answers task %d twice", l.Vehicle, l.TaskID)
		}
		seen[k] = true
	}
}

func writeSuiteFile(t *testing.T, dir, name string, byMetric map[string][]float64) string {
	t.Helper()
	st := suite{Schema: schemaVersion}
	for metricName, values := range byMetric {
		for i, v := range values {
			for len(st.Runs) <= i {
				st.Runs = append(st.Runs, &result{Workload: "ingest_single", Metrics: map[string]metric{}})
			}
			st.Runs[i].Metrics[metricName] = metric{Value: v}
		}
	}
	data, _ := json.Marshal(st)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "noisy_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "leap_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "ingest_single"})
	dir := t.TempDir()
	old := writeSuiteFile(t, dir, "old.json", map[string][]float64{
		"lat_ms":   {1.00, 1.01, 0.99, 1.00},
		"ops_s":    {1000, 1010, 990, 1000},
		"noisy_ms": {1.0, 1.4, 0.7, 1.2},
		"leap_ms":  {1.0, 1.4, 0.7, 1.2},
	})
	cur := writeSuiteFile(t, dir, "new.json", map[string][]float64{
		"lat_ms":   {1.05, 1.04, 1.06, 1.05}, // 5% worse: inside the bound
		"ops_s":    {850, 860, 840, 850},     // 15% fewer: regressed
		"noisy_ms": {1.1, 1.5, 0.8, 1.3},     // spread wider than the bound
		"leap_ms":  {0.5, 0.6, 0.4, 0.5},     // every run beats every old run
	})
	var out bytes.Buffer
	if code, err := compareFiles(&out, sp, old, cur); code != 1 || err != nil {
		t.Errorf("exit code %d, error %v; want 1 for a regression", code, err)
	}
	for metricName, want := range map[string]string{"lat_ms": "ok", "ops_s": "regressed", "noisy_ms": "unresolved", "leap_ms": "ok"} {
		re := regexp.MustCompile(`(?m)^ingest_single\s+` + metricName + `\s.*\s` + want + `$`)
		if !re.Match(out.Bytes()) {
			t.Errorf("%s: want verdict %s in\n%s", metricName, want, out.String())
		}
	}
	out.Reset()
	if code, err := compareFiles(&out, sp, old, old); code != 0 || err != nil {
		t.Errorf("a file compared with itself exits %d, error %v", code, err)
	}

	// Runs at another seed or over another window had other inputs: their
	// numbers are not compared at all.
	for name, change := range map[string]func(*result){
		"seed":   func(r *result) { r.Seed = 2 },
		"window": func(r *result) { r.MeasureS = 20 },
	} {
		st, err := loadSuite(cur)
		if err != nil {
			t.Fatal(err)
		}
		change(st.Runs[0])
		data, _ := json.Marshal(st)
		other := filepath.Join(dir, name+".json")
		if err := os.WriteFile(other, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := compareFiles(&out, sp, old, other); err == nil {
			t.Errorf("a file with another %s was compared", name)
		}
	}
}

// BENCHMARK.json is the declaration the driver reads; this holds it to the
// contract's limits and to the workloads the code actually has.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("missing key %q", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("%d keys, want exactly 6", len(raw))
	}
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(sp.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	claim := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}
	for i, w := range sp.Workloads {
		claim(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the code has %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		claim(m.Name)
		// The contract allows 0.25; the issue demotes a metric that cannot hold
		// 0.15 to a diagnostic instead — all but setup_s, which the contract
		// requires and tells to carry the largest bound.
		limit := 0.15
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v, want at most %v", m.Name, m.Bound, limit)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.PerLayer {
		claim(m.Name)
	}
}
