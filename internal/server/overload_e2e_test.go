package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/chaos"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/overload"
)

// transitionLog records the degraded-mode state machine's path through a
// test, so assertions can check the sequence rather than just the endpoint.
type transitionLog struct {
	mu    sync.Mutex
	edges []string
}

func (l *transitionLog) observe(from, to overload.Mode, reason string) {
	l.mu.Lock()
	l.edges = append(l.edges, from.String()+"->"+to.String())
	l.mu.Unlock()
}

func (l *transitionLog) has(edge string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.edges {
		if e == edge {
			return true
		}
	}
	return false
}

func (l *transitionLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.edges, ", ")
}

// TestOverloadReadOnlyChaosE2E is the chaos end-to-end for the degraded-mode
// state machine: a durable server takes acknowledged uploads, the disk fails
// under it mid-ingest (injected ENOSPC via the WAL's FS seam), the server
// flips read-only — lookups keep serving, mutations get 503 + Retry-After,
// /readyz reports degraded — the disk heals, the probe walks the server back
// to healthy, and a restart proves every acknowledged report survived.
func TestOverloadReadOnlyChaosE2E(t *testing.T) {
	dir := t.TempDir()
	ffs := chaos.NewFaultFS(nil)
	store, _, err := OpenStore(10, StorageOptions{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}

	reg := obs.NewRegistry()
	health := obs.NewHealth()
	var edges transitionLog
	srv := New(store,
		WithMetrics(NewMetrics(reg)),
		WithHealth(health),
		WithOverload(overload.Options{OnTransition: edges.observe}))
	health.SetReady()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Overload().Controller().Run(ctx)

	// Continuous lookup traffic for the whole test: the paper's query path
	// must survive every mode. Any non-200 is a failure.
	var lookupOK, lookupBad atomic.Uint64
	lookupCtx, stopLookups := context.WithCancel(context.Background())
	var lookupWG sync.WaitGroup
	lookupWG.Add(1)
	go func() {
		defer lookupWG.Done()
		for lookupCtx.Err() == nil {
			resp, err := http.Get(ts.URL + "/v1/lookup?xmin=0&ymin=0&xmax=100&ymax=100")
			if err != nil {
				lookupBad.Add(1)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				lookupOK.Add(1)
			} else {
				lookupBad.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// upload posts one uniquely-keyed report and returns the HTTP status.
	// A 201 is an acknowledgement: that report may never be lost.
	acked := 0
	upload := func(i int) int {
		rep := Report{Vehicle: fmt.Sprintf("veh-%03d", i%7), Segment: "seg-e2e",
			APs: []APReport{{X: float64(i), Y: 2, Credit: 3}}}
		resp := postKeyed(t, ts.URL+"/v1/reports", "e2e-key-"+strconv.Itoa(i), rep)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusCreated {
			acked++
		}
		return resp.StatusCode
	}

	// Phase A: healthy ingest.
	next := 0
	for ; next < 40; next++ {
		if code := upload(next); code != http.StatusCreated {
			t.Fatalf("healthy upload %d: status %d", next, code)
		}
	}

	// Phase B: the volume fills. Every WAL write now fails with ENOSPC; the
	// first failing mutation flips the state machine read-only.
	ffs.SetFault(chaos.FSFault{FailWrites: -1, WriteErr: chaos.ErrNoSpace})
	deadline := time.Now().Add(5 * time.Second)
	for srv.Overload().Mode() != overload.ModeReadOnly {
		if time.Now().After(deadline) {
			t.Fatalf("server never went read-only; transitions: %s", edges.String())
		}
		upload(next)
		next++
		time.Sleep(5 * time.Millisecond)
	}

	// While read-only: mutations are rejected 503 with a Retry-After and the
	// mode header; /readyz stays 200 but reports the degraded mode.
	code := upload(next)
	next++
	if code != http.StatusServiceUnavailable {
		t.Fatalf("read-only upload status = %d, want 503", code)
	}
	resp := postKeyed(t, ts.URL+"/v1/reports", "e2e-ro-probe", Report{Vehicle: "v", Segment: "s"})
	io.Copy(io.Discard, resp.Body)
	if got := resp.Header.Get(api.ModeHeader); got != "read-only" {
		t.Errorf("shed %s = %q, want read-only", api.ModeHeader, got)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("shed Retry-After = %q, want integer ≥ 1", resp.Header.Get("Retry-After"))
	}

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	body, _ := io.ReadAll(ready.Body)
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Errorf("read-only /readyz status = %d, want 200 (degraded, not down)", ready.StatusCode)
	}
	if !strings.Contains(string(body), "read-only") || !strings.Contains(string(body), "degraded") {
		t.Errorf("read-only /readyz body = %s, want degraded + read-only", body)
	}

	// Lookups flowed during the outage.
	if lookupOK.Load() == 0 {
		t.Error("no successful lookups while read-only")
	}

	// Phase C: the disk heals; the probe loop walks read-only → recovering →
	// healthy without a restart.
	ffs.SetFault(chaos.FSFault{})
	deadline = time.Now().Add(5 * time.Second)
	for srv.Overload().Mode() != overload.ModeHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("server never recovered; mode %s, transitions: %s",
				srv.Overload().Mode(), edges.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Healthy again: ingest resumes and is durable again.
	for end := next + 20; next < end; next++ {
		if code := upload(next); code != http.StatusCreated {
			t.Fatalf("post-recovery upload %d: status %d", next, code)
		}
	}

	stopLookups()
	lookupWG.Wait()
	if bad := lookupBad.Load(); bad != 0 {
		t.Errorf("%d lookups failed across the outage (ok=%d); lookups must survive every mode",
			bad, lookupOK.Load())
	}

	for _, edge := range []string{"healthy->read-only", "read-only->recovering", "recovering->healthy"} {
		if !edges.has(edge) {
			t.Errorf("missing transition %s; saw: %s", edge, edges.String())
		}
	}

	// Close the books: restart from disk and count recovered reports. Every
	// acknowledged upload — and nothing torn or half-applied — must be there.
	cancel()
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	reopened, stats, err := OpenStore(10, StorageOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after chaos: %v", err)
	}
	defer reopened.Close()
	if stats.Reports != acked {
		t.Fatalf("recovered %d reports, acked %d: acked reports were lost (or ghosts appeared)",
			stats.Reports, acked)
	}
}

// TestFailedCycleAppendGoesReadOnly: the aggregation cycle crowdwifi-server's
// ticker runs belongs to no request, yet its capture record is a durable
// append like an upload's. When the disk refuses it, the server must stop
// acknowledging as it would after a failed upload.
func TestFailedCycleAppendGoesReadOnly(t *testing.T) {
	ffs := chaos.NewFaultFS(nil)
	store, _, err := OpenStore(10, StorageOptions{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer store.Close()
	srv := New(store, WithOverload(overload.Options{}))
	if err := store.AddReport(Report{Vehicle: "v", Segment: "s", APs: []APReport{{X: 1, Y: 2, Credit: 3}}}); err != nil {
		t.Fatalf("AddReport: %v", err)
	}

	ffs.SetFault(chaos.FSFault{FailWrites: -1, WriteErr: chaos.ErrNoSpace})
	if _, err := store.AggregateCycleContext(context.Background()); !errors.Is(err, ErrDurability) {
		t.Fatalf("cycle on a full disk: err %v, want ErrDurability", err)
	}
	if mode := srv.Overload().Controller().Mode(); mode != overload.ModeReadOnly {
		t.Fatalf("mode after a failed cycle append = %s, want read-only", mode)
	}
	ffs.SetFault(chaos.FSFault{})
}

// TestFailedGroupFsyncFailsEveryMember is TestFsyncFailureDoesNotReplayUnackedRecord
// for a group: n reports queue behind a held fsync, and the one fsync of the
// group they then make fails. Every member gets ErrDurability, none is
// stored or completes its key, the sink hears the fault once, and after the
// retries a reopen holds each report once: none of the failed group replays.
func TestFailedGroupFsyncFailsEveryMember(t *testing.T) {
	ctx := context.Background()
	ffs := chaos.NewFaultFS(nil)
	dir := t.TempDir()
	store, _, err := OpenStore(10, StorageOptions{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	var faults atomic.Int32
	store.OnDurabilityError(func(error) { faults.Add(1) })
	report := func(i int) Report {
		return Report{Vehicle: fmt.Sprintf("v%d", i), Segment: "s", APs: []APReport{{X: float64(i), Y: 2, Credit: 3}}}
	}

	held, release := ffs.HoldSync()
	defer release()
	lead := make(chan error, 1)
	go func() { lead <- store.AddReportKeyed(ctx, "lead", report(0)) }()
	<-held
	const n = 6
	keys := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range keys {
		keys[i] = fmt.Sprintf("member-%d", i)
		go func() {
			defer wg.Done()
			errs[i] = store.AddReportKeyed(ctx, keys[i], report(i+1))
		}()
	}
	waitQueued(store, n)
	ffs.SetFault(chaos.FSFault{FailSyncs: 1})
	release()
	if err := <-lead; err != nil {
		t.Fatalf("the held report: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrDurability) {
			t.Errorf("member %d: err %v, want ErrDurability", i, err)
		}
	}
	if p, l, r := store.Counts(); p != 0 || l != 0 || r != 1 {
		t.Errorf("counts after the failed group = %d, %d, %d, want only the held report: 0, 0, 1", p, l, r)
	}
	for _, key := range keys {
		if seen, _ := store.idem.begin(key); seen {
			t.Errorf("key %s is known after its group failed; a retry would not run", key)
		}
		store.idem.release(key)
	}
	if got := faults.Load(); got != 1 {
		t.Errorf("the sink heard %d faults, want 1 for the group", got)
	}

	for i, key := range keys {
		if err := store.AddReportKeyed(ctx, key, report(i+1)); err != nil {
			t.Fatalf("retry of %s: %v", key, err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened, stats, err := OpenStore(10, StorageOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if stats.Reports != n+1 || stats.IdemKeys != n+1 {
		t.Fatalf("reopened with %d reports and %d keys, want %d of each: the failed group replayed", stats.Reports, stats.IdemKeys, n+1)
	}
}

// TestModeHeaderSetOnSuccessWithOverloadEnabled: with overload control on,
// even plain 2xx responses carry the mode header (it used to ride only on
// sheds), which is what lets the router track shard health from traffic.
func TestModeHeaderSetOnSuccessWithOverloadEnabled(t *testing.T) {
	ts := httptest.NewServer(New(NewStore(12), WithOverload(overload.Options{})))
	defer ts.Close()
	resp := postKeyed(t, ts.URL+"/v1/reports", "mode-key", Report{
		Vehicle: "veh-mode", Segment: "s", APs: []APReport{{X: 1, Y: 1, Credit: 1}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.ModeHeader); got != "healthy" {
		t.Errorf("%s = %q, want \"healthy\" on a 2xx", api.ModeHeader, got)
	}
}
