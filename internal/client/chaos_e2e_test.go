package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/chaos"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/server"
)

// The headline resilience guarantee (ISSUE PR 2): an end-to-end pipeline run
// under ~30% request loss plus injected 5xx, resets, and truncated bodies
// must lose zero reports and produce byte-identical fused AP output compared
// to a fault-free run. Determinism comes from the seeded fault schedule and
// from the pipeline shape: vehicles act sequentially and every upload is
// fully delivered (outbox drained) before the next one starts, so the
// server's ingestion order matches the fault-free run exactly.

// chaosSeed is pinned to a schedule that draws every fault class at least
// once (drops, resets, 5xx, truncations) — verified by the assertions below.
const chaosSeed = 0xBADC0DE

// chaosFault sums to roughly 30% of requests failing outright (drop + reset)
// with additional 5xx and truncation on top.
var chaosFault = chaos.Fault{
	Drop:      0.18,
	Reset:     0.10,
	Err5xx:    0.10,
	Truncate:  0.05,
	DelayProb: 0.10,
	Delay:     time.Millisecond,
}

// chaosHarshFault is vehicle 3's link — a far worse RF environment where
// three out of four requests fail, so its uploads are all but certain to
// traverse the store-and-forward outbox.
var chaosHarshFault = chaos.Fault{
	Drop:  0.50,
	Reset: 0.25,
}

// chaosAPs are the per-vehicle synthetic AP estimates: everyone observes the
// same two roadside APs with small offsets.
var chaosAPs = [][]api.APReport{
	{{X: 100, Y: 50, Credit: 3}, {X: 200, Y: 80, Credit: 2}},
	{{X: 102, Y: 52, Credit: 3}, {X: 201, Y: 79, Credit: 2}},
	{{X: 98, Y: 49, Credit: 4}, {X: 199, Y: 81, Credit: 1}},
	{{X: 101, Y: 51, Credit: 2}, {X: 202, Y: 78, Credit: 2}},
}

// pipelineRig selects the transports for one pipeline run. Zero value = plain
// http.DefaultClient everywhere (the fault-free baseline).
type pipelineRig struct {
	vehicleDoer func(i int) HTTPDoer // transport for vehicle i
	opsDoer     HTTPDoer             // transport for aggregate/reliability/lookup
	metrics     Metrics              // client metrics (zero = unmetered)
}

// runChaosPipeline drives propose → report → label → aggregate → lookup for
// four vehicles against a fresh crowd-server and returns the store, the test
// server (open until test cleanup, for /metrics scrapes), and a canonical
// string of the fused lookup output plus the reliability map.
func runChaosPipeline(t *testing.T, rig pipelineRig) (*server.Store, *httptest.Server, string) {
	t.Helper()
	ctx := context.Background()
	store := server.NewStore(10)
	srvMetrics := server.NewMetrics(obs.NewRegistry())
	ts := httptest.NewServer(server.New(store, server.WithMetrics(srvMetrics)))
	t.Cleanup(ts.Close)

	vehicles := make([]*CrowdVehicle, len(chaosAPs))
	for i := range vehicles {
		var doer HTTPDoer
		if rig.vehicleDoer != nil {
			doer = rig.vehicleDoer(i)
		}
		vehicles[i] = &CrowdVehicle{
			ID:      fmt.Sprintf("veh-%d", i),
			BaseURL: ts.URL,
			HTTP:    doer,
			Metrics: rig.metrics,
			Outbox:  NewOutbox(32),
		}
	}

	// Vehicle 0 proposes the constellation as a mapping task. Proposals are
	// not queueable (the caller needs the id), so vehicle 0's transport must
	// retry hard enough to deliver under the seeded fault schedule.
	var created struct {
		ID int `json:"id"`
	}
	p := api.Pattern{Segment: "seg-A", APs: chaosAPs[0]}
	if err := vehicles[0].postJSON(ctx, "/v1/patterns", p, &created, false); err != nil {
		t.Fatalf("propose pattern: %v", err)
	}

	// Sequential per-vehicle flow: pull tasks, submit labels, upload the
	// report — each delivered completely before the next vehicle acts.
	for i, v := range vehicles {
		var tasks []api.Pattern
		for attempt := 0; ; attempt++ {
			var err error
			tasks, err = v.PullTasks(ctx, 5)
			if err == nil {
				break
			}
			if attempt > 200 {
				t.Fatalf("vehicle %d: pull tasks: %v", i, err)
			}
		}
		if len(tasks) != 1 || tasks[0].ID != created.ID {
			t.Fatalf("vehicle %d: tasks = %+v, want task %d", i, tasks, created.ID)
		}
		labels := []api.Label{{Vehicle: v.ID, TaskID: created.ID, Value: 1}}
		mustDeliver(t, ctx, v, i, "labels", v.SubmitLabels(ctx, labels))

		rep := api.Report{Vehicle: v.ID, Segment: "seg-A", APs: chaosAPs[i]}
		mustDeliver(t, ctx, v, i, "report", v.postJSON(ctx, "/v1/reports", rep, nil, true))
	}

	// Operator actions and the user-vehicle readback. Aggregation is
	// deterministic over the same inputs, so a retried (reset) aggregate
	// re-runs to the identical state.
	if _, err := Aggregate(ctx, rig.opsDoer, ts.URL); err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	user := &UserVehicle{BaseURL: ts.URL, HTTP: rig.opsDoer}
	area := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 300, Y: 150})
	var pts []geo.Point
	for attempt := 0; ; attempt++ {
		var err error
		pts, err = user.Lookup(ctx, area)
		if err == nil {
			break
		}
		if attempt > 200 {
			t.Fatalf("lookup: %v", err)
		}
	}
	var rel map[string]float64
	for attempt := 0; ; attempt++ {
		var err error
		rel, err = Reliability(ctx, rig.opsDoer, ts.URL)
		if err == nil {
			break
		}
		if attempt > 200 {
			t.Fatalf("reliability: %v", err)
		}
	}

	fused, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	relJSON, err := json.Marshal(rel) // map keys sort deterministically
	if err != nil {
		t.Fatal(err)
	}
	return store, ts, string(fused) + "\n" + string(relJSON)
}

// mustDeliver requires an upload to reach the server in this contact window:
// either the call succeeded outright or it was queued and the outbox drains
// to empty (each drain pass retries under the same fault schedule).
func mustDeliver(t *testing.T, ctx context.Context, v *CrowdVehicle, i int, what string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if !errors.Is(err, ErrQueued) {
		t.Fatalf("vehicle %d: %s failed without queueing: %v", i, what, err)
	}
	for attempt := 0; v.Outbox.Len() > 0; attempt++ {
		if attempt > 500 {
			t.Fatalf("vehicle %d: %s stuck in outbox", i, what)
		}
		if _, derr := v.DrainOutbox(ctx); derr != nil && !transientError(derr) {
			t.Fatalf("vehicle %d: drain: %v", i, derr)
		}
	}
}

func TestChaosPipelineZeroLossByteIdenticalFusion(t *testing.T) {
	// Fault-free baseline.
	baseStore, _, baseline := runChaosPipeline(t, pipelineRig{})

	// Chaos rig: every path crosses a seeded injector. Vehicles 0–2 get the
	// full resilience stack (retry + breaker + budget over the injector);
	// vehicle 3 gets the injector bare, so every fault it draws exercises the
	// store-and-forward outbox. The ops transport retries hard because
	// aggregate/lookup have no outbox to fall back on.
	reg := obs.NewRegistry()
	clientMetrics := NewMetrics(reg)
	retryMetrics := retry.NewMetrics(reg)
	breaker := retry.NewBreaker(retry.BreakerConfig{
		Threshold:     64, // stays closed under this schedule; breaker trips have their own tests
		Cooldown:      5 * time.Millisecond,
		OnStateChange: retryMetrics.BreakerHook(),
	})
	policy := retry.Policy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	var injectors []*chaos.Injector
	mkInjector := func(f chaos.Fault, seed uint64) *chaos.Injector {
		inj := chaos.NewInjector(http.DefaultClient, f, seed)
		injectors = append(injectors, inj)
		return inj
	}
	rig := pipelineRig{
		metrics: clientMetrics,
		vehicleDoer: func(i int) HTTPDoer {
			if i == 3 {
				return mkInjector(chaosHarshFault, chaosSeed+uint64(i))
			}
			inj := mkInjector(chaosFault, chaosSeed+uint64(i))
			return retry.NewDoer(inj, policy,
				retry.WithBreaker(breaker),
				retry.WithBudget(retry.BudgetConfig{Ratio: 2, Burst: 100}),
				retry.WithMetrics(retryMetrics))
		},
		opsDoer: retry.NewDoer(mkInjector(chaosFault, chaosSeed+100), policy, retry.WithMetrics(retryMetrics)),
	}
	chaosStore, chaosTS, chaosOut := runChaosPipeline(t, rig)

	// Zero lost ingestion: identical stored volumes, nothing dropped.
	bp, bl, br := baseStore.Counts()
	cp, cl, cr := chaosStore.Counts()
	if cp != bp || cl != bl || cr != br {
		t.Errorf("chaos stored (patterns,labels,reports) = (%d,%d,%d), baseline (%d,%d,%d)",
			cp, cl, cr, bp, bl, br)
	}
	if cr != len(chaosAPs) {
		t.Errorf("reports = %d, want %d (zero loss)", cr, len(chaosAPs))
	}

	// Byte-identical fused output and reliability map.
	if chaosOut != baseline {
		t.Errorf("fused output diverged under chaos:\nchaos:    %s\nbaseline: %s", chaosOut, baseline)
	}

	// The run must actually have been hostile: faults were injected, and at
	// least one reset/truncation forced the server-side idempotency cache to
	// answer a replay (the exactly-once machinery, not luck).
	var drops, resets, errs, truncs int
	for _, inj := range injectors {
		d, r, e, tr, _ := inj.Counts()
		drops, resets, errs, truncs = drops+d, resets+r, errs+e, truncs+tr
	}
	t.Logf("injected faults: drops=%d resets=%d errs=%d truncs=%d", drops, resets, errs, truncs)
	if drops+resets+errs+truncs < 10 {
		t.Errorf("only %d faults injected; the schedule is too tame to prove anything",
			drops+resets+errs+truncs)
	}
	if drops < 1 || resets < 1 || errs < 1 || truncs < 1 {
		t.Errorf("every fault class must fire at least once: drops=%d resets=%d errs=%d truncs=%d",
			drops, resets, errs, truncs)
	}
	srvExp := scrapeMetrics(t, chaosTS.URL)
	if v := seriesValue(t, srvExp, "crowdwifi_server_deduped_requests_total"); v < 1 {
		t.Errorf("server deduped_requests_total = %v, want >= 1 (no replay was deduplicated)", v)
	}

	// The client-side registry exposes the resilience series with activity on
	// them: retries happened, the outbox queued and drained, the breaker
	// gauge is published.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	clientExp := sb.String()
	if v := seriesValue(t, clientExp, "crowdwifi_retry_retries_total"); v < 1 {
		t.Errorf("retry_retries_total = %v, want >= 1", v)
	}
	if v := seriesValue(t, clientExp, "crowdwifi_client_outbox_enqueued_total"); v < 1 {
		t.Errorf("outbox_enqueued_total = %v, want >= 1", v)
	}
	drained := seriesValue(t, clientExp, "crowdwifi_client_outbox_drained_total")
	enqueued := seriesValue(t, clientExp, "crowdwifi_client_outbox_enqueued_total")
	if drained != enqueued {
		t.Errorf("outbox drained = %v, enqueued = %v: entries were lost or dropped", drained, enqueued)
	}
	for _, series := range []string{
		"crowdwifi_breaker_state",
		"crowdwifi_retry_exhausted_total",
		"crowdwifi_client_outbox_depth",
	} {
		if !strings.Contains(clientExp, series) {
			t.Errorf("client exposition missing %s", series)
		}
	}
}

// scrapeMetrics fetches /metrics (client package has no access to the server
// package's test helpers).
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValue extracts the sample value for a series name (plus optional
// label prefix) from a Prometheus text exposition.
func seriesValue(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, prefix+" "), "%g", &v); err != nil {
			t.Fatalf("series %s: bad value in %q: %v", prefix, line, err)
		}
		return v
	}
	t.Fatalf("series %s not found in exposition:\n%s", prefix, exposition)
	return 0
}
