package obs

import "strings"

// parseLabels decodes a rendered label string — the `k="v",k2="v2"` form
// labelString produces and the exposition format carries between braces —
// into a key→value map. Escaped `\\`, `\"`, and `\n` sequences inside values
// are unescaped. Malformed input returns nil; an empty string returns an
// empty map (the unlabeled series).
func parseLabels(s string) map[string]string {
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
// or a non-counter family returns 0. Tests read family totals through it
// without scraping the process.
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
		if match != nil && !match(parseLabels(k)) {
			continue
		}
		sum += float64(cnt.Value())
	}
	return sum
}
