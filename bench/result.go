package main

import (
	"fmt"
	"sort"
	"time"

	"crowdwifi/internal/eval"
)

// schemaVersion names the layout of the JSON this bench writes; -compare
// refuses files of another version.
const schemaVersion = "crowdwifi-bench/v1"

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type childInfo struct {
	Name string   `json:"name"`
	Args []string `json:"args"`
}

// result is one run of one workload: either the untraced run against the
// real binaries (end-to-end metrics) or the traced in-process pass
// (per-layer metrics).
type result struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	WarmS    float64 `json:"warm_s"`
	MeasureS float64 `json:"measure_s"`
	// Children lists every flag passed to each binary.
	Children []childInfo `json:"children,omitempty"`
	// SetupRuns is how many set-ups setup_s was taken from.
	SetupRuns int `json:"setup_runs,omitempty"`
	// Lanes are the two connections' raw numbers; Metrics are the named
	// metrics derived from them.
	Lanes   map[string]laneStats `json:"lanes,omitempty"`
	Metrics map[string]metric    `json:"metrics"`
	// Counters are /metrics deltas over the measure window; null means the
	// server did not export that counter.
	Counters map[string]*float64 `json:"counters,omitempty"`
	Checks   []checkResult       `json:"checks"`
	// Attempted and Failed count operations inside the measure window.
	// A refusal (503) is the system's designed answer under load and is
	// priced by acked_share; Failed counts everything else that went wrong.
	Attempted int  `json:"attempted"`
	Refused   int  `json:"refused"`
	Failed    int  `json:"failed"`
	Correct   bool `json:"correct"`
	// Spans is the traced pass's span count; the spans themselves go to
	// their own file.
	Spans int `json:"spans,omitempty"`
}

func (r *result) setMetric(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records one output check; a failed one makes the run incorrect.
func (r *result) check(name string, err error) {
	c := checkResult{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) recordChildren(s *sut) {
	for _, p := range s.procs {
		r.Children = append(r.Children, childInfo{Name: p.name, Args: p.args})
	}
}

// finish settles Correct: every check passed, something was attempted, and
// nothing failed.
func (r *result) finish() {
	r.Correct = r.Attempted > 0 && r.Failed == 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (r *result) print() {
	if r.Traced {
		fmt.Printf("== %s (traced, seed %d, fixed operation counts)\n", r.Workload, r.Seed)
	} else {
		fmt.Printf("== %s (untraced, seed %d, %gs warm-up + %gs measure)\n", r.Workload, r.Seed, r.WarmS, r.MeasureS)
	}
	for _, id := range []string{"a", "b"} {
		l, ok := r.Lanes[id]
		if !ok {
			continue
		}
		fmt.Printf("   lane %s: %-6s %-11s attempted %d ok %d refused %d failed %d; %.1f units/s, p50 %.3f ms, p%g %.3f ms (n=%d)\n",
			id, l.Kind, l.Loop, l.Attempted, l.OK, l.Refused, l.Failed, l.UnitsPerS,
			l.Latency.P50, l.Latency.TailP, l.Latency.Tail, l.Latency.N)
	}
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("   %-44s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(r.Counters) {
		if v := r.Counters[name]; v != nil {
			fmt.Printf("   %-44s %14.0f count\n", name, *v)
		} else {
			fmt.Printf("   %-44s %14s\n", name, "null")
		}
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Printf("   check %-28s %s\n", c.Name, verdict)
	}
}

// scrapedCounters are read from /metrics at both edges of the measure window
// of an untraced run.
var scrapedCounters = []string{
	"crowdwifi_wal_fsyncs_total",
	"crowdwifi_wal_appends_total",
	"crowdwifi_wal_append_bytes_total",
	"crowdwifi_admission_shed_total",
	"crowdwifi_server_shed_requests_total",
	"crowdwifi_server_aggregate_cycles_total",
	"crowdwifi_server_aggregate_duration_seconds_sum",
	"crowdwifi_server_reports_total",
}

// readCPU sums the user+system CPU time of the processes so far.
func readCPU(pids []int) time.Duration {
	var total time.Duration
	for _, pid := range pids {
		// A process that cannot be read fails the run: its CPU would
		// otherwise silently count as zero.
		cpu, err := procCPU(pid)
		if err != nil {
			fatal(err)
		}
		total += cpu
	}
	return total
}

func scrapeAll(metricsURLs []string) counters {
	var sum counters
	for _, u := range metricsURLs {
		for name, v := range scrape(u) {
			if sum == nil {
				sum = counters{}
			}
			sum[name] += v
		}
	}
	return sum
}

// measurement is how one workload's window is taken.
type measurement struct {
	// pids are the system under test, metricsURLs its /metrics endpoints;
	// CPU and counters are read at both edges of the window.
	pids        []int
	metricsURLs []string
	// run drives the lanes through warm-up and the window.
	run func(lanes []*lane, warm, measure time.Duration)
}

// kindMetrics names a lane's median latency and its units of work per second
// the way the issue does, by what the lane does. Two lanes of one kind are
// one stream of such operations: their samples are pooled, their rates added.
var kindMetrics = map[string]struct{ p50, rate string }{
	"upload": {"upload_p50_ms", "upload_reports_s"},
	"batch":  {"upload_p50_ms", "upload_reports_s"},
	"lookup": {"lookup_p50_ms", "lookup_ops_s"},
	"drive":  {"round_p50_ms", "drive_samples_s"},
}

// measureLanes runs lanes a and b through warm-up and the measure window and
// derives the run's named metrics.
func (rc *runCtx) measureLanes(m measurement, a, b *lane) error {
	type reading struct {
		cpu      time.Duration
		counters counters
	}
	read := func() reading { return reading{readCPU(m.pids), scrapeAll(m.metricsURLs)} }
	atStart := make(chan reading, 1)
	t0 := time.Now().Add(rc.warm)
	go func() {
		time.Sleep(time.Until(t0))
		atStart <- read()
	}()
	m.run([]*lane{a, b}, rc.warm, rc.measure)
	before, after := <-atStart, read()

	res := rc.res
	res.Lanes = map[string]laneStats{"a": a.stats(), "b": b.stats()}
	done := 0
	pooled, rates := map[string][]float64{}, map[string]float64{}
	for _, id := range []string{"a", "b"} {
		l := res.Lanes[id]
		if l.OK == 0 {
			return fmt.Errorf("lane %s: no operation answered inside the window", id)
		}
		res.Attempted += l.Attempted
		res.Refused += l.Refused
		res.Failed += l.Failed
		done += l.OK
		pooled[l.Kind] = append(pooled[l.Kind], l.Latency.Sorted...)
		rates[l.Kind] += l.UnitsPerS
	}
	for kind, lats := range pooled {
		res.setMetric(kindMetrics[kind].p50, eval.Median(lats), "ms")
		res.setMetric(kindMetrics[kind].rate, rates[kind], "1/s")
	}
	share := float64(res.Refused+res.Failed) / float64(res.Attempted)
	res.setMetric("failed_share", share, "share")
	// The same number the other way up: a metric of the benchmark contract
	// may never read 0, and failed_share mostly does.
	res.setMetric("acked_share", 1-share, "share")
	res.setMetric("cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(done), "ms")
	peak := 0.0
	for _, pid := range m.pids {
		rss, err := procPeakRSS(pid)
		if err != nil {
			return err
		}
		peak = max(peak, rss)
	}
	res.setMetric("rss_peak_mb", peak, "MiB")
	if len(m.metricsURLs) > 0 {
		res.Counters = map[string]*float64{}
		for _, name := range scrapedCounters {
			res.Counters[name] = delta(before.counters, after.counters, name)
		}
	}
	return nil
}
