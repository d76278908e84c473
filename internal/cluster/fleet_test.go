package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/client"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/server"
	"crowdwifi/internal/wal"
)

// fleetLink is the fleet's radio link. While down every request fails before
// it is sent, the way a vehicle out of contact fails; up, it counts the batch
// posts that went out and keeps the slowest answer.
type fleetLink struct {
	next       *http.Client
	down       atomic.Bool
	batchPosts atomic.Uint64

	mu      sync.Mutex
	slowest time.Duration
}

func (l *fleetLink) Do(req *http.Request) (*http.Response, error) {
	if l.down.Load() {
		return nil, errors.New("fleet link down")
	}
	if req.URL.Path == api.RouteReportsBatch {
		l.batchPosts.Add(1)
	}
	start := time.Now()
	resp, err := l.next.Do(req)
	l.mu.Lock()
	l.slowest = max(l.slowest, time.Since(start))
	l.mu.Unlock()
	return resp, err
}

// fleet is a closed-loop crowd-vehicle fleet: real client.CrowdVehicles, each
// behind its own retrying doer with its own outbox, so a shed upload backs
// off, retries and finally parks exactly as the vehicle binary's would.
type fleet struct {
	t        *testing.T
	link     *fleetLink
	vehicles []*client.CrowdVehicle
	// reg holds every vehicle's client metrics.
	reg *obs.Registry
	// Uploads acked directly, parked in an outbox, and delivered from one.
	acked, parked, drained atomic.Uint64
}

func newFleet(t *testing.T, baseURL string, n int) *fleet {
	t.Helper()
	// One connection per vehicle, as a real fleet holds: the default two
	// idle connections per host would measure TCP handshakes.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = n
	t.Cleanup(transport.CloseIdleConnections)
	f := &fleet{t: t, link: &fleetLink{next: &http.Client{Transport: transport}}, reg: obs.NewRegistry()}
	metrics := client.NewMetrics(f.reg)
	for i := 0; i < n; i++ {
		f.vehicles = append(f.vehicles, &client.CrowdVehicle{
			ID:      fmt.Sprintf("fleet-%03d", i),
			BaseURL: baseURL,
			HTTP:    retry.NewDoer(f.link, retry.Policy{}),
			Outbox:  client.NewOutbox(256),
			Metrics: metrics,
		})
	}
	return f
}

// drive runs the first n vehicles for window, each one uploading, waiting for
// the answer, thinking and repeating, and returns the uploads acked inside
// the window. An upload the window's end cuts off parks in its vehicle's
// outbox like any other transient failure.
func (f *fleet) drive(n int, think, window time.Duration) uint64 {
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	before := f.acked.Load()
	var wg sync.WaitGroup
	for i, v := range f.vehicles[:n] {
		wg.Add(1)
		go func(i int, v *client.CrowdVehicle) {
			defer wg.Done()
			rep := api.Report{Vehicle: v.ID, Segment: fmt.Sprintf("fleet-seg-%02d", i%16),
				APs: []api.APReport{{X: float64(10 * i), Y: 5, Credit: 4}, {X: float64(10*i) + 40, Y: -5, Credit: 2}}}
			for ctx.Err() == nil {
				switch err := v.UploadReport(ctx, rep); {
				case err == nil:
					f.acked.Add(1)
				case errors.Is(err, client.ErrQueued):
					f.parked.Add(1)
				default:
					f.t.Errorf("%s: upload neither acked nor parked: %v", v.ID, err)
				}
				select {
				case <-ctx.Done():
				case <-time.After(think):
				}
			}
		}(i, v)
	}
	wg.Wait()
	return f.acked.Load() - before
}

// settle drains every outbox, pacing each vehicle by the server's
// Retry-After. It runs after every window: a parked upload the server did
// store is recognised by its idempotency key only while the key is among the
// most recent ones.
func (f *fleet) settle() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, v := range f.vehicles {
		wg.Add(1)
		go func(v *client.CrowdVehicle) {
			defer wg.Done()
			for ctx.Err() == nil && v.Outbox.Len() > 0 {
				n, err := v.DrainOutbox(ctx)
				f.drained.Add(uint64(n))
				if err != nil {
					time.Sleep(max(client.RetryAfterHint(err), 20*time.Millisecond))
				}
			}
			if left := v.Outbox.Len(); left != 0 {
				f.t.Errorf("%s: %d uploads still parked", v.ID, left)
			}
		}(v)
	}
	wg.Wait()
	evicted := f.reg.SumCounters("crowdwifi_client_outbox_dropped_total", func(ls map[string]string) bool { return ls["reason"] == "evicted" })
	if evicted != 0 {
		f.t.Errorf("full outboxes evicted %v uploads", evicted)
	}
}

// TestFleetOverloadKeepsGoodputAndLosesNothing is the single-node contract
// of the overload controls, on a durable (fsync per ack) store: a fleet three
// times the baseline's, with no think time, still gets at least 70 % of the
// baseline's acks through in the same window, and every report a vehicle
// handed over — acked, or parked and later drained — is stored exactly once.
// It logs the overload window's fsyncs per logged record: the share of the
// disk's work the store's group commit saves under fleet traffic.
func TestFleetOverloadKeepsGoodputAndLosesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	store, _, err := server.OpenStore(e2eRadius, server.StorageOptions{Dir: t.TempDir(), Metrics: wal.NewMetrics(reg)})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	srv := server.New(store, server.WithOverload(overload.Options{Registry: reg}))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		_ = store.Close()
	})

	const baseFleet, window = 30, 1500 * time.Millisecond
	f := newFleet(t, ts.URL, 3*baseFleet)
	logged := func() (appends, fsyncs float64) {
		return reg.SumCounters("crowdwifi_wal_appends_total", nil), reg.SumCounters("crowdwifi_wal_fsyncs_total", nil)
	}
	baseline := f.drive(baseFleet, 100*time.Millisecond, window)
	f.settle()
	a0, s0 := logged()
	overloaded := f.drive(3*baseFleet, 0, window)
	a1, s1 := logged()
	f.settle()
	acked, parked, drained := f.acked.Load(), f.parked.Load(), f.drained.Load()

	t.Logf("overload window: %.0f records in %.0f fsyncs (%.2f per record)", a1-a0, s1-s0, (s1-s0)/(a1-a0))
	t.Logf("acks: baseline %d, overload %d (ratio %.2f); shed %d, parked %d, drained %d; slowest answer %v",
		baseline, overloaded, float64(overloaded)/float64(baseline),
		uint64(reg.SumCounters("crowdwifi_admission_shed_total", func(ls map[string]string) bool { return ls["family"] == "upload" })), parked, drained, f.link.slowest.Round(time.Millisecond))
	if baseline == 0 {
		t.Fatal("baseline window acked nothing")
	}
	if float64(overloaded) < 0.70*float64(baseline) {
		t.Errorf("overload window acked %d, under 70%% of the baseline's %d", overloaded, baseline)
	}
	if drained != parked {
		t.Errorf("parked %d uploads, drained %d", parked, drained)
	}
	if _, _, stored := store.Counts(); uint64(stored) != acked+drained {
		t.Errorf("stored %d reports, vehicles handed over %d acked + %d drained", stored, acked, drained)
	}
}

// TestFleetBooksBalanceAcrossShards drives the fleet through a router over
// two durable shards, takes the link down so uploads park, and brings it back:
// the drains go out as batches the router splits by owner, and the shards
// together hold exactly what the vehicles handed over.
func TestFleetBooksBalanceAcrossShards(t *testing.T) {
	members := []string{"a", "b"}
	a := newE2EShard(t, "a", members, server.WithOverload(overload.Options{}))
	b := newE2EShard(t, "b", members, server.WithOverload(overload.Options{}))
	_, router := newE2ERouter(t, a, b)

	f := newFleet(t, router.URL, 8)
	f.drive(8, 2*time.Millisecond, 400*time.Millisecond)
	f.link.down.Store(true)
	// 10 ms of think bounds what one vehicle parks in the window to 50, well
	// inside its outbox.
	f.drive(8, 10*time.Millisecond, 500*time.Millisecond)
	f.link.down.Store(false)
	f.settle()
	acked, parked, drained, batches := f.acked.Load(), f.parked.Load(), f.drained.Load(), f.link.batchPosts.Load()

	t.Logf("acked %d, parked %d, drained %d in %d batch posts", acked, parked, drained, batches)
	if acked == 0 || parked == 0 || batches == 0 {
		t.Fatal("want acks, parked uploads and batch posts all above zero")
	}
	if drained != parked {
		t.Errorf("parked %d uploads, drained %d", parked, drained)
	}
	_, _, onA := a.store.Counts()
	_, _, onB := b.store.Counts()
	if onA == 0 || onB == 0 {
		t.Errorf("shard a stored %d reports, shard b %d: the ring should have used both", onA, onB)
	}
	if uint64(onA+onB) != acked+drained {
		t.Errorf("shards stored %d + %d reports, vehicles handed over %d acked + %d drained", onA, onB, acked, drained)
	}
}
