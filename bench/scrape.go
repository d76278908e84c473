package main

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// counters is one /metrics scrape folded to a total per metric name: label
// sets are summed, which is what the per-report ratios need.
type counters map[string]float64

// parseCounters reads Prometheus text exposition. Lines it cannot read are
// skipped: a scrape is a diagnostic, never a reason to fail a run.
func parseCounters(r io.Reader) counters {
	out := counters{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// name{labels} value [# exemplar]; a label value may hold spaces, so
		// the value is the first field after the closing brace.
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				continue
			}
			name, rest = line[:i], line[j+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

func scrape(url string) counters {
	resp, err := http.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	return parseCounters(resp.Body)
}

// delta is the growth of one counter between two scrapes, or nil when either
// scrape lacks it — a renamed counter reads as null, not as zero.
func delta(before, after counters, name string) *float64 {
	a, okA := before[name]
	b, okB := after[name]
	if !okA || !okB {
		return nil
	}
	d := b - a
	return &d
}
