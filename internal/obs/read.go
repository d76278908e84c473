package obs

import (
	"math"
	"strings"
)

// ParseLabels decodes a rendered label string — the `k="v",k2="v2"` form
// labelString produces and the exposition format carries between braces —
// into a key→value map. Escaped `\\`, `\"`, and `\n` sequences inside values
// are unescaped. Malformed input returns nil; an empty string returns an
// empty map (the unlabeled series).
func ParseLabels(s string) map[string]string {
	out := map[string]string{}
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil
		}
		key := s[i : i+eq]
		i += eq + 1
		if key == "" || i >= len(s) || s[i] != '"' {
			return nil
		}
		i++ // opening quote
		var sb strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				case 'n':
					sb.WriteByte('\n')
				default:
					sb.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			sb.WriteByte(c)
			i++
		}
		if !closed {
			return nil
		}
		out[key] = sb.String()
		if i < len(s) {
			if s[i] != ',' {
				return nil
			}
			i++
		}
	}
	return out
}

// SumCounters sums every counter series in the named family whose label set
// is accepted by match (a nil match accepts all series). An unknown family
// or a non-counter family returns 0. This is the registry's programmatic
// read path: SLO sources consume RED counters through it without scraping
// their own process.
func (r *Registry) SumCounters(name string, match func(labels map[string]string) bool) float64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.typ != counterType {
		return 0
	}
	var sum float64
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, c := range f.children {
		cnt, ok := c.(*Counter)
		if !ok {
			continue
		}
		if match != nil && !match(ParseLabels(k)) {
			continue
		}
		sum += float64(cnt.Value())
	}
	return sum
}

// SumHistogramBuckets sums, over every histogram series in the named family
// whose label set is accepted by match (nil accepts all), the cumulative
// observations with value ≤ bound and the total observation count. bound
// selects every bucket whose upper bound is ≤ bound; math.Inf(1) selects all.
// The ratio le/total is a lifetime "fraction under threshold" suitable for
// latency SLOs.
func (r *Registry) SumHistogramBuckets(name string, match func(labels map[string]string) bool, bound float64) (le, total uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.typ != histogramType {
		return 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, c := range f.children {
		h := c.(*Histogram)
		if match != nil && !match(ParseLabels(k)) {
			continue
		}
		for i, ub := range h.upper {
			if ub <= bound || math.IsInf(bound, 1) {
				le += h.counts[i].Load()
			}
		}
		if math.IsInf(bound, 1) {
			le += h.counts[len(h.upper)].Load()
		}
		total += h.Count()
	}
	return le, total
}
