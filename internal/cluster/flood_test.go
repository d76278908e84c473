package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/chaos"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/server"
)

// floodUploadCap is a shard's upload family cap, which the flood is sized by.
const floodUploadCap = 128

// TestRoutedUploadFloodSparesLookups is the server's upload flood sent
// through a router over two durable shards, each holding its next fsync:
// each shard gets floodUploadCap uploads, which fill its upload family and
// wait on the disk, and extra more, which its queue sheds. The router must
// relay each shed with both backoff headers rather than retry it, and no
// routed lookup may fail or go partial, during the flood or after it: a shed
// is a shard's answer, not a fault its breaker counts. Every 201 is stored.
// How long an answer may take is the server flood's to bound.
func TestRoutedUploadFloodSparesLookups(t *testing.T) {
	const extra = 32 // uploads per shard past its cap: each is queued, then shed
	members := []string{"a", "b"}
	var peers []Peer
	var stores []*server.Store
	var releases []func()
	for _, id := range members {
		ffs := chaos.NewFaultFS(nil)
		store, _, err := server.OpenStore(e2eRadius, server.StorageOptions{Dir: t.TempDir(), FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		srv := server.New(store, server.WithOverload(overload.Options{}),
			server.WithCluster(server.ClusterOptions{Self: id, Members: members}))
		shard := httptest.NewServer(srv)
		t.Cleanup(shard.Close)
		_, release := ffs.HoldSync()
		t.Cleanup(release)
		peers = append(peers, Peer{ID: id, URL: shard.URL})
		stores = append(stores, store)
		releases = append(releases, release)
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 1024
	t.Cleanup(transport.CloseIdleConnections)
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	rt, err := NewRouter(RouterOptions{Peers: peers, Retry: fastPolicy(), HTTP: client})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)

	// One segment per shard, so each shard's share of the flood is exact.
	segments := map[string]string{}
	for i := 0; len(segments) < len(members); i++ {
		seg := fmt.Sprintf("flood-seg-%d", i)
		if owner := rt.Owner(seg); segments[owner] == "" {
			segments[owner] = seg
		}
	}

	type answer struct {
		key    string
		status int
		header http.Header
	}
	const perShard = floodUploadCap + extra
	n := perShard * len(members)
	answers := make(chan answer, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		go func() {
			key := fmt.Sprintf("flood-%d", i)
			body, _ := json.Marshal(api.Report{Vehicle: fmt.Sprintf("flood-%03d", i%97), Segment: segments[members[i%len(members)]],
				APs: []api.APReport{{X: float64(i), Y: 3, Credit: 2}}})
			req, _ := http.NewRequest(http.MethodPost, ts.URL+api.RouteReports, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(api.IdempotencyKeyHeader, key)
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
	// disks are released once the uploads past the caps have been answered.
	var lookups, badLookups int
	lookup := func() {
		lookups++
		resp, err := client.Get(ts.URL + api.RouteLookup + "?xmin=0&ymin=0&xmax=1000&ymax=10")
		if err != nil {
			t.Errorf("lookup %d: %v", lookups, err)
			badLookups++
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) != "" {
			t.Errorf("lookup %d: status %d, partial %q", lookups, resp.StatusCode, resp.Header.Get(PartialHeader))
			badLookups++
		}
	}
	var got []answer
	released := false
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
		if !released && len(got) >= extra*len(members) {
			released = true
			for _, release := range releases {
				release()
			}
		}
		if !released && time.Since(start) > 20*time.Second {
			t.Fatalf("%d of %d uploads answered in 20 s while the disks were held, want the %d past the caps", len(got), n, extra*len(members))
		}
		time.Sleep(5 * time.Millisecond)
	}
	lookup()

	var acks, sheds int
	for _, a := range got {
		switch a.status {
		case 0:
		case http.StatusCreated:
			acks++
		case http.StatusServiceUnavailable:
			sheds++
			if a.header.Get("Retry-After") == "" || a.header.Get(api.RetryAfterMsHeader) == "" {
				t.Errorf("shed without both backoff headers: %v", a.header)
			}
		default:
			t.Errorf("flood upload %s: status %d", a.key, a.status)
		}
	}

	t.Logf("%d uploads at once over %d shards, %d past each cap: acks %d, sheds %d; lookups %d, failed %d",
		n, len(members), extra, acks, sheds, lookups, badLookups)
	if sheds == 0 {
		t.Error("the flood shed nothing: no shard's upload family filled")
	}
	stored := 0
	for _, s := range stores {
		_, _, reports := s.Counts()
		stored += reports
	}
	if stored != acks {
		t.Errorf("stored %d reports, acked %d", stored, acks)
	}
}
