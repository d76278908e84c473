package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/chaos"
	"crowdwifi/internal/overload"
)

// floodUploadCap and floodQueueDeadline are the upload family's built-in cap
// and sojourn deadline, which the latency bound below is made of.
const (
	floodUploadCap     = 128
	floodQueueDeadline = 100 * time.Millisecond
)

// TestUploadFloodSparesLookups drives a durable server whose disk stalls
// every write with open-loop uploads at about three times the rate it can
// ack, beside a steady lookup stream. The admission bound must keep the
// flood from touching lookups and give every upload a bounded answer: a 201,
// or a 503 carrying both backoff headers, never later than a full upload
// family's service time plus the queue deadline, however long the flood
// runs. Every 201 is stored; nothing else is. Without admission the same
// flood queues without limit and the slowest answer grows with its length.
func TestUploadFloodSparesLookups(t *testing.T) {
	const writeDelay = 5 * time.Millisecond
	ffs := chaos.NewFaultFS(nil)
	store, _, err := OpenStore(10, StorageOptions{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { _ = store.Close() })
	srv := New(store, WithOverload(overload.Options{}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ffs.SetFault(chaos.FSFault{WriteDelay: writeDelay})

	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 1024
	t.Cleanup(transport.CloseIdleConnections)
	client := &http.Client{Transport: transport}

	var acks, next atomic.Int64
	// upload posts one uniquely keyed report and returns its status, its
	// backoff headers and how long the answer took.
	upload := func() (status int, h http.Header, took time.Duration) {
		i := next.Add(1)
		body, _ := json.Marshal(Report{Vehicle: fmt.Sprintf("flood-%03d", i%97), Segment: fmt.Sprintf("flood-seg-%d", i%8),
			APs: []APReport{{X: float64(i % 1000), Y: 3, Credit: 2}}})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+api.RouteReports, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(IdempotencyKeyHeader, fmt.Sprintf("flood-%d", i))
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("upload %d: %v", i, err)
			return 0, nil, 0
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			acks.Add(1)
		}
		return resp.StatusCode, resp.Header, time.Since(start)
	}

	// Capacity: closed-loop uploads from a few workers, well under the cap.
	const workers, probeWindow = 8, 400 * time.Millisecond
	var wg sync.WaitGroup
	probeEnd := time.Now().Add(probeWindow)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(probeEnd) {
				if status, _, _ := upload(); status != http.StatusCreated {
					t.Errorf("calibration upload: status %d", status)
				}
			}
		}()
	}
	wg.Wait()
	capacity := float64(acks.Load()) / probeWindow.Seconds()
	if capacity == 0 {
		t.Fatal("calibration acked nothing")
	}
	// A steady lookup stream beside the flood.
	var lookups, badLookups atomic.Int64
	lookupCtx, stopLookups := context.WithCancel(context.Background())
	var lookupWG sync.WaitGroup
	lookupWG.Add(1)
	go func() {
		defer lookupWG.Done()
		for lookupCtx.Err() == nil {
			resp, err := client.Get(ts.URL + api.RouteLookup + "?xmin=0&ymin=0&xmax=1000&ymax=10")
			lookups.Add(1)
			if err != nil {
				badLookups.Add(1)
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				badLookups.Add(1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The flood: open loop, each upload issued on schedule whatever the
	// server is doing.
	const floodWindow = 1500 * time.Millisecond
	interval := time.Duration(float64(time.Second) / (3 * capacity))
	var (
		mu      sync.Mutex
		slowest time.Duration
		sheds   int
	)
	floodAcksBefore := acks.Load()
	start := time.Now()
	for i := 0; time.Since(start) < floodWindow; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, h, took := upload()
			mu.Lock()
			defer mu.Unlock()
			slowest = max(slowest, took)
			switch status {
			case 0, http.StatusCreated:
			case http.StatusServiceUnavailable:
				sheds++
				if h.Get("Retry-After") == "" || h.Get(api.RetryAfterMsHeader) == "" {
					t.Errorf("shed without both backoff headers: %v", h)
				}
			default:
				t.Errorf("flood upload: status %d", status)
			}
		}()
	}
	wg.Wait()
	stopLookups()
	lookupWG.Wait()
	floodAcks := acks.Load() - floodAcksBefore

	// An admitted upload waits behind at most a full family, each ack taking
	// one share of the disk: the write delay at least, or what the flood or
	// the calibration measured if the machine is slower than that. A quarter
	// more covers the work around the disk (accept, decode, dedupe), and
	// 250 ms the scheduler of a loaded test machine.
	service := max(writeDelay, time.Duration(float64(time.Second)/capacity),
		time.Since(start)/time.Duration(max(floodAcks, 1)))
	bound := (floodUploadCap*service+floodQueueDeadline)*5/4 + 250*time.Millisecond

	t.Logf("capacity %.0f acks/s (service %v); flood at 3× for %v: acks %d, sheds %d, slowest %v (bound %v); lookups %d, failed %d",
		capacity, service, floodWindow, floodAcks, sheds, slowest.Round(time.Millisecond), bound,
		lookups.Load(), badLookups.Load())
	if bad := badLookups.Load(); bad != 0 {
		t.Errorf("%d of %d lookups failed during the flood", bad, lookups.Load())
	}
	if slowest > bound {
		t.Errorf("slowest upload answer took %v, over the %v bound", slowest, bound)
	}
	if _, _, stored := store.Counts(); int64(stored) != acks.Load() {
		t.Errorf("stored %d reports, acked %d", stored, acks.Load())
	}
}
