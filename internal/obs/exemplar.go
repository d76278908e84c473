package obs

import "time"

// Exemplar links one histogram observation to the trace that produced it, so
// "what does a 2-second upload actually look like?" is answered by fetching
// /debug/traces/{TraceID} instead of guessing from aggregates.
type Exemplar struct {
	// TraceID is the hex trace id of the request that produced the sample.
	TraceID string `json:"traceId"`
	// Value is the observed value (seconds for latency histograms).
	Value float64 `json:"value"`
	// Time is when the sample was observed.
	Time time.Time `json:"time"`
}

// ObserveWithExemplar records one sample and, when traceID is non-empty,
// remembers it as the bucket's exemplar (latest per bucket wins, matching
// Prometheus semantics). The highest non-empty bucket therefore always
// carries a trace id from one of the slowest recent observations — exactly
// the trace the store's slowest-N tail retention keeps alive.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := h.bucketIndex(v)
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sum.add(v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
	}
}

// bucketIndex returns the index of the bucket v falls in (len(upper) for
// +Inf).
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	return i
}

// BucketExemplars returns the recorded exemplars keyed by the rendered upper
// bound of their bucket ("+Inf" for the overflow bucket). Empty when none
// were recorded.
func (h *Histogram) BucketExemplars() map[string]Exemplar {
	if h == nil {
		return nil
	}
	out := map[string]Exemplar{}
	for i := range h.exemplars {
		ex := h.exemplars[i].Load()
		if ex == nil {
			continue
		}
		le := "+Inf"
		if i < len(h.upper) {
			le = formatFloat(h.upper[i])
		}
		out[le] = *ex
	}
	return out
}

// Exemplars returns every recorded exemplar across the registry's histogram
// series, keyed "name{labels}" → bucket upper bound → exemplar. Feeds the
// /debug/vars document so a scrape can jump straight from a slow bucket to
// its trace.
func (r *Registry) Exemplars() map[string]map[string]Exemplar {
	if r == nil {
		return nil
	}
	out := map[string]map[string]Exemplar{}
	for _, f := range r.histogramFamilies() {
		for k, h := range f.histogramChildren() {
			ex := h.BucketExemplars()
			if len(ex) == 0 {
				continue
			}
			series := f.name
			if k != "" {
				series += "{" + k + "}"
			}
			out[series] = ex
		}
	}
	return out
}
