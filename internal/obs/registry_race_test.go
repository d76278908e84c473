package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentScrapeHighCardinality hammers one registry from
// writer goroutines that keep minting new label combinations (the worst-case
// cardinality pattern: per-route, per-code, per-vehicle labels all growing
// mid-scrape) while scrapers concurrently serve /metrics and read the
// histogram buckets the SLO sources sum. Run under -race this pins down
// the registry's central claim: scrapes stay consistent while the series set
// is still growing.
func TestRegistryConcurrentScrapeHighCardinality(t *testing.T) {
	r := NewRegistry()
	const (
		writers    = 4
		seriesPerG = 300
	)

	var writerWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			for i := 0; i < seriesPerG; i++ {
				id := fmt.Sprintf("%d-%d", g, i)
				r.Counter("race_requests_total", "test",
					L("route", "/v1/x"), L("vehicle", id)).Add(uint64(i))
				r.Gauge("race_depth", "test", L("vehicle", id)).Set(float64(i))
				h := r.Histogram("race_latency_seconds", "test", nil, L("vehicle", id))
				h.Observe(float64(i%20) / 10)
			}
		}(g)
	}

	for s := 0; s < 2; s++ {
		scraperWG.Add(1)
		go func() {
			defer scraperWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if rec.Code != 200 {
					t.Errorf("/metrics: status %d", rec.Code)
					return
				}
				r.SumHistogramBuckets("race_latency_seconds", nil, 1)
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	scraperWG.Wait()

	// Post-race sanity: the full exposition renders every family exactly
	// once and carries the expected series count.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("final WritePrometheus: %v", err)
	}
	out := sb.String()
	if got := strings.Count(out, "# TYPE race_latency_seconds "); got != 1 {
		t.Fatalf("race_latency_seconds TYPE rendered %d times, want 1", got)
	}
	if got := strings.Count(out, "race_depth{"); got != writers*seriesPerG {
		t.Fatalf("race_depth series = %d, want %d", got, writers*seriesPerG)
	}
	if _, total := r.SumHistogramBuckets("race_latency_seconds", nil, 1); total != writers*seriesPerG {
		t.Fatalf("histogram observations = %d, want %d", total, writers*seriesPerG)
	}
}
