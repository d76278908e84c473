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
// under a bound" ratio a scraper computes, and its _sum covers exactly the
// observations counted, or rate(_sum)/rate(_count), the mean, is skewed: a
// histogram observing only 1s must scrape _sum = _count. Run under -race
// this pins down the registry's central claim: scrapes stay consistent while
// the series set is still growing.
func TestRegistryConcurrentScrapeHighCardinality(t *testing.T) {
	r := NewRegistry()
	const (
		writers    = 4
		seriesPerG = 300
		// minScrapes is what each scraper serves at least, all of them
		// racing the ones writers.
		minScrapes = 5
	)

	var writerWG, scraperWG, onesWG sync.WaitGroup
	stop, onesStop := make(chan struct{}), make(chan struct{})

	hot := r.Histogram("race_hot_seconds", "test", nil)
	ones := r.Histogram("race_ones", "test", nil)
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

	// Two more writers observe 1 until the scrapers are done.
	for g := 0; g < 2; g++ {
		onesWG.Add(1)
		go func() {
			defer onesWG.Done()
			for {
				select {
				case <-onesStop:
					return
				default:
				}
				for j := 0; j < 100; j++ {
					ones.Observe(1)
				}
			}
		}()
	}

	for s := 0; s < 2; s++ {
		scraperWG.Add(1)
		go func() {
			defer scraperWG.Done()
			for n := 0; ; n++ {
				if n >= minScrapes {
					select {
					case <-stop:
						return
					default:
					}
				}
				rec := httptest.NewRecorder()
				r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if rec.Code != 200 {
					t.Errorf("/metrics: status %d", rec.Code)
					return
				}
				counts, sums, err := histogramCounts(rec.Body.String())
				if err != nil {
					t.Error(err)
					return
				}
				if float64(counts["race_ones"]) != sums["race_ones"] {
					t.Errorf("race_ones: _count %d, _sum %g in one scrape", counts["race_ones"], sums["race_ones"])
					return
				}
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	scraperWG.Wait()
	close(onesStop)
	onesWG.Wait()

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
	counts, sums, err := histogramCounts(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := counts["race_latency_seconds"]; got != writers*seriesPerG {
		t.Fatalf("race_latency_seconds observations = %d, want %d", got, writers*seriesPerG)
	}
	if got := counts["race_hot_seconds"]; got != writers*seriesPerG*100 {
		t.Fatalf("race_hot_seconds observations = %d, want %d", got, writers*seriesPerG*100)
	}
	if n := counts["race_ones"]; n == 0 || float64(n) != sums["race_ones"] {
		t.Fatalf("race_ones: _count %d, _sum %g", n, sums["race_ones"])
	}
}

// histogramCounts checks that every histogram series of an exposition has
// _count equal to its +Inf bucket, and returns each family's total count and
// total sum.
func histogramCounts(page string) (map[string]uint64, map[string]float64, error) {
	inf, count := map[string]string{}, map[string]string{}
	totals, sums := map[string]uint64{}, map[string]float64{}
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
		if name, _, ok := strings.Cut(series, "_sum"); ok {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %v", line, err)
			}
			sums[name] += v
		}
		if name, labels, ok := strings.Cut(series, "_count"); ok {
			if labels == "" {
				labels = "{}"
			}
			count[name+labels] = value
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %v", line, err)
			}
			totals[name] += n
		}
	}
	for series, v := range count {
		if inf[series] != v {
			return nil, nil, fmt.Errorf("%s: _count %s, +Inf bucket %q", series, v, inf[series])
		}
	}
	return totals, sums, nil
}
