package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/chaos"
	"crowdwifi/internal/overload"
)

// floodUploadCap and floodQueueDeadline are the upload family's built-in cap
// and sojourn deadline, which the flood and its latency bound are made of.
const (
	floodUploadCap     = 128
	floodQueueDeadline = 100 * time.Millisecond
)

// TestUploadFloodSparesLookups floods a durable server whose disk holds its
// next fsync, so its capacity is known: no upload is acked while the disk is
// held, the first floodUploadCap uploads take every slot of the upload
// family and wait on that fsync, and each upload past them waits in the
// family's queue for its deadline and is shed. Lookups beside the flood must
// all be answered, every shed must carry both backoff headers, every 201
// must be stored, and, timed at the server, no shed may wait much past the
// queue deadline and no ack much past the disk's return.
func TestUploadFloodSparesLookups(t *testing.T) {
	const extra = 64 // uploads past the cap: each is queued, then shed
	ffs := chaos.NewFaultFS(nil)
	store, _, err := OpenStore(10, StorageOptions{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { _ = store.Close() })
	srv := New(store, WithOverload(overload.Options{}))
	var took sync.Map // idempotency key → time the server took to answer
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		srv.ServeHTTP(w, r)
		if key := r.Header.Get(IdempotencyKeyHeader); key != "" {
			took.Store(key, time.Since(start))
		}
	}))
	t.Cleanup(ts.Close)
	_, release := ffs.HoldSync()
	t.Cleanup(release)

	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 1024
	t.Cleanup(transport.CloseIdleConnections)
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	type answer struct {
		key    string
		status int
		header http.Header
	}
	const n = floodUploadCap + extra
	answers := make(chan answer, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		go func() {
			key := fmt.Sprintf("flood-%d", i)
			body, _ := json.Marshal(Report{Vehicle: fmt.Sprintf("flood-%03d", i%97), Segment: fmt.Sprintf("flood-seg-%d", i%8),
				APs: []APReport{{X: float64(i), Y: 3, Credit: 2}}})
			req, _ := http.NewRequest(http.MethodPost, ts.URL+api.RouteReports, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(IdempotencyKeyHeader, key)
			resp, err := client.Do(req)
			if err != nil {
				t.Errorf("upload %s: %v", key, err)
				answers <- answer{key: key}
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			answers <- answer{key, resp.StatusCode, resp.Header}
		}()
	}

	// Lookups run until every upload is answered, and once more after: the
	// disk is released once the uploads past the cap have been answered.
	var lookups, badLookups int
	lookup := func() {
		lookups++
		resp, err := client.Get(ts.URL + api.RouteLookup + "?xmin=0&ymin=0&xmax=1000&ymax=10")
		if err != nil {
			badLookups++
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			badLookups++
		}
	}
	var got []answer
	var hold time.Duration
	for len(got) < n {
		lookup()
		for drained := false; !drained; {
			select {
			case a := <-answers:
				got = append(got, a)
			default:
				drained = true
			}
		}
		if hold == 0 && len(got) >= extra {
			hold = time.Since(start)
			release()
		}
		if hold == 0 && time.Since(start) > 20*time.Second {
			t.Fatalf("%d of %d uploads answered in 20 s while the disk was held, want the %d past the cap", len(got), n, extra)
		}
		time.Sleep(5 * time.Millisecond)
	}
	lookup()

	var acks, sheds int
	var slowestShed, slowestAck time.Duration
	for _, a := range got {
		v, _ := took.Load(a.key)
		d, _ := v.(time.Duration)
		switch a.status {
		case 0:
		case http.StatusCreated:
			acks++
			slowestAck = max(slowestAck, d)
		case http.StatusServiceUnavailable:
			sheds++
			slowestShed = max(slowestShed, d)
			if a.header.Get("Retry-After") == "" || a.header.Get(api.RetryAfterMsHeader) == "" {
				t.Errorf("shed without both backoff headers: %v", a.header)
			}
		default:
			t.Errorf("flood upload %s: status %d", a.key, a.status)
		}
	}

	// A shed waits at most the queue deadline and an ack at most the hold. A
	// quarter more covers the work around them (accept, decode, the group's
	// one write and fsync), and 250 ms the scheduler of a loaded machine.
	bound := func(d time.Duration) time.Duration { return d*5/4 + 250*time.Millisecond }
	t.Logf("%d uploads at once, %d past the cap; disk held %v: acks %d, sheds %d, slowest shed %v, slowest ack %v; lookups %d, failed %d",
		n, extra, hold.Round(time.Millisecond), acks, sheds, slowestShed.Round(time.Millisecond), slowestAck.Round(time.Millisecond),
		lookups, badLookups)
	if sheds == 0 {
		t.Error("the flood shed nothing: the upload family never filled")
	}
	if badLookups != 0 {
		t.Errorf("%d of %d lookups failed during the flood", badLookups, lookups)
	}
	if slowestShed > bound(floodQueueDeadline) {
		t.Errorf("slowest shed took %v at the server, over the %v bound", slowestShed, bound(floodQueueDeadline))
	}
	if slowestAck > bound(hold) {
		t.Errorf("slowest ack took %v at the server, over the %v bound", slowestAck, bound(hold))
	}
	if _, _, stored := store.Counts(); stored != acks {
		t.Errorf("stored %d reports, acked %d", stored, acks)
	}
}
