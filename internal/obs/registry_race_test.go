package obs

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentScrapeHighCardinality hammers one registry from
// writer goroutines that keep minting new label combinations (the worst-case
// cardinality pattern: per-route, per-code, per-vehicle labels all growing
// mid-scrape) and keep observing one hot histogram, while scrapers
// concurrently serve /metrics. Every scrape must be a consistent exposition:
// each histogram's _count is its +Inf bucket, the denominator of any "share
// under a bound" ratio a scraper computes. Run under -race this pins down
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

	hot := r.Histogram("race_hot_seconds", "test", nil)
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			for i := 0; i < seriesPerG; i++ {
				for j := 0; j < 100; j++ {
					hot.Observe(float64(j%20) / 10)
				}
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
				if _, err := histogramCounts(rec.Body.String()); err != nil {
					t.Error(err)
					return
				}
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
	counts, err := histogramCounts(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := counts["race_latency_seconds"]; got != writers*seriesPerG {
		t.Fatalf("race_latency_seconds observations = %d, want %d", got, writers*seriesPerG)
	}
	if got := counts["race_hot_seconds"]; got != writers*seriesPerG*100 {
		t.Fatalf("race_hot_seconds observations = %d, want %d", got, writers*seriesPerG*100)
	}
}

// histogramCounts checks that every histogram series of an exposition has
// _count equal to its +Inf bucket, and returns each family's total count.
func histogramCounts(page string) (map[string]uint64, error) {
	inf, count := map[string]string{}, map[string]string{}
	totals := map[string]uint64{}
	for _, line := range strings.Split(page, "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if name, labels, ok := strings.Cut(series, "_bucket{"); ok {
			if rest, ok := strings.CutSuffix(labels, `le="+Inf"}`); ok {
				inf[name+"{"+strings.TrimSuffix(rest, ",")+"}"] = value
			}
		}
		if name, labels, ok := strings.Cut(series, "_count"); ok {
			if labels == "" {
				labels = "{}"
			}
			count[name+labels] = value
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", line, err)
			}
			totals[name] += n
		}
	}
	for series, v := range count {
		if inf[series] != v {
			return nil, fmt.Errorf("%s: _count %s, +Inf bucket %q", series, v, inf[series])
		}
	}
	return totals, nil
}
