package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"crowdwifi/internal/obs"
)

// ReportSchema versions the run-report JSON layout; bump it when a field
// changes meaning, not when fields are added.
const ReportSchema = "crowdwifi-load-report/v1"

// snapshot freezes the fleet counters at a phase boundary so measure-phase
// rates are deltas, untouched by warmup and drain traffic.
type snapshot struct {
	when    time.Time
	counts  map[string]map[string]uint64 // endpoint → outcome → value
	retries uint64
	parked  uint64
	drained uint64
	dropped uint64
}

func (r *Runner) snapshot() snapshot {
	s := snapshot{when: time.Now(), counts: map[string]map[string]uint64{}}
	for ep, t := range r.tracks {
		s.counts[ep] = map[string]uint64{
			"ok":     t.ok.Value(),
			"queued": t.queued.Value(),
			"error":  t.errs.Value(),
		}
	}
	s.retries = r.counterValue("crowdwifi_retry_retries_total")
	s.parked = r.counterValue("crowdwifi_client_outbox_enqueued_total")
	s.drained = r.counterValue("crowdwifi_client_outbox_drained_total")
	s.dropped = r.counterValue("crowdwifi_client_outbox_dropped_total", obs.L("reason", "terminal"))
	return s
}

// serverSample is one scrape of the target server's /debug/vars and
// /metrics: enough to report CPU, heap, and ingest-side counter deltas
// without the loader linking against the server at all.
type serverSample struct {
	available  bool
	when       time.Time
	cpuSeconds float64
	heapAlloc  uint64
	goroutines int
	reports    uint64
	shed       uint64
	deduped    uint64
	httpErrors uint64

	// Overload-control surface (absent when the target runs without
	// -overload-mode): degradation mode, state-machine transition count,
	// and the admission controller's admit/shed totals across families.
	overload    bool
	mode        string
	transitions uint64
	admitted    uint64
	admShed     uint64
}

// modeSeverity orders degradation modes worst-last so a multi-shard scrape
// can report the worst shard's mode.
func modeSeverity(mode string) int {
	switch mode {
	case "":
		return -1
	case "healthy":
		return 0
	case "recovering":
		return 1
	case "overloaded":
		return 2
	case "read-only":
		return 3
	}
	return 1
}

// scrapeServer samples every target in Config.ScrapeURLs with a plain HTTP
// client (not the retrying fleet transport, which would pollute the fleet's
// own metrics) and sums the counters across them — against a cluster the
// server-side section then covers all shards, not one. The reported mode is
// the worst across targets. A target that fails to answer is skipped; the
// sample is unavailable only when every target failed.
func (r *Runner) scrapeServer(ctx context.Context) serverSample {
	s := serverSample{when: time.Now()}
	cl := &http.Client{Timeout: 5 * time.Second}

	for _, base := range r.cfg.ScrapeURLs {
		var vars struct {
			Memstats struct {
				HeapAlloc uint64 `json:"HeapAlloc"`
			} `json:"memstats"`
			Process  obs.ProcStats `json:"crowdwifi_process"`
			Overload struct {
				Mode string `json:"mode"`
			} `json:"crowdwifi_overload"`
		}
		if err := getJSON(ctx, cl, base+"/debug/vars", &vars); err != nil {
			continue
		}
		s.cpuSeconds += vars.Process.CPUSeconds
		s.heapAlloc += vars.Memstats.HeapAlloc
		s.goroutines += vars.Process.Goroutines
		if vars.Overload.Mode != "" {
			s.overload = true
			if modeSeverity(vars.Overload.Mode) > modeSeverity(s.mode) {
				s.mode = vars.Overload.Mode
			}
		}

		body, err := getBody(ctx, cl, base+"/metrics")
		if err != nil {
			continue
		}
		counters := parsePromCounters(body)
		s.reports += counters["crowdwifi_server_reports_total"]
		s.shed += counters["crowdwifi_server_shed_requests_total"]
		s.deduped += counters["crowdwifi_server_deduped_requests_total"]
		s.httpErrors += counters["crowdwifi_http_errors_total"]
		s.transitions += counters["crowdwifi_overload_transitions_total"]
		s.admitted += counters["crowdwifi_admission_admitted_total"]
		s.admShed += counters["crowdwifi_admission_shed_total"]
		s.available = true
	}
	return s
}

// sloDocument is what the report reads of a target's /debug/slo document
// (slo.Status). Decoding that subset here keeps the SLO engine, which only a
// serving tier runs, out of the load generator's imports.
type sloDocument struct {
	Objectives []struct {
		Name    string  `json:"name"`
		Target  float64 `json:"target"`
		Healthy bool    `json:"healthy"`
		Windows []struct {
			ErrorRate float64 `json:"errorRate"`
			BurnRate  float64 `json:"burnRate"`
		} `json:"windows"`
		Alerts []struct {
			Name   string `json:"name"`
			Firing bool   `json:"firing"`
		} `json:"alerts"`
	} `json:"objectives"`
}

// scrapeSLO fetches the target's /debug/slo verdicts. It tries the server URL
// first (against a cluster that is the router, whose objectives are the
// user-facing ones) and falls back to the scrape targets, so a bare shard run
// with -scrape pointed at the shard's metrics address still gets verdicts.
func (r *Runner) scrapeSLO(ctx context.Context) (sloDocument, bool) {
	cl := &http.Client{Timeout: 5 * time.Second}
	targets := append([]string{r.cfg.ServerURL}, r.cfg.ScrapeURLs...)
	for _, base := range targets {
		var st sloDocument
		if err := getJSON(ctx, cl, base+"/debug/slo", &st); err != nil || len(st.Objectives) == 0 {
			continue
		}
		return st, true
	}
	return sloDocument{}, false
}

func getJSON(ctx context.Context, cl *http.Client, url string, out any) error {
	body, err := getBody(ctx, cl, url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), out)
}

func getBody(ctx context.Context, cl *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("load: GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return string(b), err
}

// parsePromCounters sums Prometheus text-format samples by family name,
// collapsing labels — exactly what the report needs for totals like
// crowdwifi_http_errors_total across all routes.
func parsePromCounters(body string) map[string]uint64 {
	out := map[string]uint64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
		if err != nil || v < 0 {
			continue
		}
		out[name] += uint64(v)
	}
	return out
}

// LatencyStats summarizes one endpoint's measure-phase latency in seconds.
type LatencyStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// latencyStats summarizes a histogram; ok is false when it saw no samples.
func latencyStats(h *obs.Histogram) (stats LatencyStats, ok bool) {
	n := h.Count()
	if n == 0 {
		return LatencyStats{}, false
	}
	return LatencyStats{
		Count: n,
		Mean:  h.Sum() / float64(n),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}, true
}

// EndpointReport is one endpoint's measure-phase traffic summary.
type EndpointReport struct {
	Requests       uint64       `json:"requests"`
	OK             uint64       `json:"ok"`
	Queued         uint64       `json:"queued"`
	Errors         uint64       `json:"errors"`
	PerSecond      float64      `json:"perSecond"`
	LatencySeconds LatencyStats `json:"latencySeconds"`
}

// ShardReport is one shard's slice of the router-proxied traffic over the
// measure phase, attributed via the X-Crowdwifi-Shard response header.
type ShardReport struct {
	Requests       uint64       `json:"requests"`
	LatencySeconds LatencyStats `json:"latencySeconds"`
}

// SLOVerdict is one objective's end-of-run state as reported by the target's
// /debug/slo: the shortest window's error and burn rates plus any alerts
// still firing when the run ended.
type SLOVerdict struct {
	Name      string   `json:"name"`
	Target    float64  `json:"target"`
	Healthy   bool     `json:"healthy"`
	ErrorRate float64  `json:"errorRate"`
	BurnRate  float64  `json:"burnRate"`
	Firing    []string `json:"firing,omitempty"`
}

// RunReport is the machine-readable outcome of one load run (the BENCH_*.json
// payload). All latency numbers are seconds; all rates are per second of the
// measure phase.
type RunReport struct {
	Schema    string `json:"schema"`
	Tool      string `json:"tool"`
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
	Platform  string `json:"platform"`
	CPUs      int    `json:"cpus"`
	Generated string `json:"generated"`

	Config struct {
		ServerURL      string  `json:"serverUrl"`
		Vehicles       int     `json:"vehicles"`
		WarmupSeconds  float64 `json:"warmupSeconds"`
		MeasureSeconds float64 `json:"measureSeconds"`
		DrainSeconds   float64 `json:"drainSeconds"`
		ThinkSeconds   float64 `json:"thinkSeconds"`
		LookupEvery    int     `json:"lookupEvery"`
		Archetypes     int     `json:"archetypes"`
		RetryAttempts  int     `json:"retryAttempts"`
		OutboxCap      int     `json:"outboxCap"`
		Seed           uint64  `json:"seed"`
		Codec          string  `json:"codec"`
		BatchSize      int     `json:"batchSize,omitempty"`
	} `json:"config"`

	// Sustained rates over the measure phase.
	Sustained struct {
		UploadsPerSec  float64 `json:"uploadsPerSec"`
		LookupsPerSec  float64 `json:"lookupsPerSec"`
		RequestsPerSec float64 `json:"requestsPerSec"`
		MeasureSeconds float64 `json:"measureSeconds"`
	} `json:"sustained"`

	// Endpoints holds measure-phase per-endpoint breakdowns.
	Endpoints map[string]EndpointReport `json:"endpoints"`

	// Shards breaks router-proxied latency down by owning shard (absent when
	// the target is a single server, which never stamps the shard header).
	// Comparing a shard's quantiles against the upload endpoint's shows the
	// router's own overhead: endpoint latency is the client-to-router span,
	// shard latency attributes the same requests to whichever shard served
	// them.
	Shards map[string]ShardReport `json:"shards,omitempty"`

	// Resilience summarizes the delivery machinery over the whole run
	// (warmup through drain): zero Lost is the acceptance bar.
	Resilience struct {
		Retries         uint64 `json:"retries"`
		Parked          uint64 `json:"parked"`
		DrainDelivered  uint64 `json:"drainDelivered"`
		DrainDropped    uint64 `json:"drainDropped"`
		OutboxRemaining int    `json:"outboxRemaining"`
		OutboxEvicted   uint64 `json:"outboxEvicted"`
		UploadErrors    uint64 `json:"uploadErrors"`
		Lost            uint64 `json:"lost"`
		// Measure-phase shed/park rates relative to upload attempts.
		ShedRate  float64 `json:"shedRate"`
		ParkRate  float64 `json:"parkRate"`
		RetryRate float64 `json:"retryRate"`
		// ShedThenOK counts logical uploads that hit at least one 503 and
		// were still delivered (whole run); the latency stats are the
		// measure-phase cost of being shed, first attempt to final ack.
		ShedThenOK              uint64       `json:"shedThenOK"`
		ShedRetryLatencySeconds LatencyStats `json:"shedRetryLatencySeconds"`
	} `json:"resilience"`

	// Server holds target-side deltas over the measure phase, scraped from
	// /debug/vars and /metrics. Absent (available=false) when the target
	// does not expose them.
	Server struct {
		Available       bool    `json:"available"`
		CPUSecondsDelta float64 `json:"cpuSecondsDelta"`
		CPUUtilization  float64 `json:"cpuUtilization"`
		HeapAllocBytes  uint64  `json:"heapAllocBytes"`
		Goroutines      int     `json:"goroutines"`
		ReportsDelta    uint64  `json:"reportsDelta"`
		ShedDelta       uint64  `json:"shedDelta"`
		DedupedDelta    uint64  `json:"dedupedDelta"`
	} `json:"server"`

	// Overload summarizes the target's admission control over the measure
	// phase (absent when the server runs without -overload-mode): degradation
	// mode at the window edges, state-machine transitions, and the admission
	// controller's admit/shed deltas summed across endpoint families.
	Overload struct {
		Available          bool   `json:"available"`
		ModeBefore         string `json:"modeBefore"`
		ModeAfter          string `json:"modeAfter"`
		ModeFinal          string `json:"modeFinal"`
		TransitionsDelta   uint64 `json:"transitionsDelta"`
		TransitionsRun     uint64 `json:"transitionsRun"`
		AdmittedDelta      uint64 `json:"admittedDelta"`
		AdmissionShedDelta uint64 `json:"admissionShedDelta"`
	} `json:"overload"`

	// SLO carries the target's end-of-run /debug/slo verdicts (absent when
	// the target does not expose the SLO surface). Healthy is the AND across
	// objectives.
	SLO struct {
		Available  bool         `json:"available"`
		Healthy    bool         `json:"healthy"`
		Objectives []SLOVerdict `json:"objectives,omitempty"`
	} `json:"slo"`

	// Verification closes the books across the whole run: every upload the
	// fleet considers acknowledged against the server's accepted count.
	Verification struct {
		AckedUploads        uint64 `json:"ackedUploads"`
		ServerReportsDelta  uint64 `json:"serverReportsDelta"`
		ServerSideAvailable bool   `json:"serverSideAvailable"`
		Consistent          bool   `json:"consistent"`
	} `json:"verification"`
}

type reportInputs struct {
	before, after                                       snapshot
	serverStart, serverBefore, serverAfter, serverFinal serverSample
	slo                                                 sloDocument
	sloOK                                               bool
	measured                                            time.Duration
}

func (r *Runner) buildReport(in reportInputs) *RunReport {
	rep := &RunReport{
		Schema:    ReportSchema,
		Tool:      "crowdwifi-load",
		Version:   obs.Version,
		GoVersion: runtime.Version(),
		Platform:  runtime.GOOS + "/" + runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Generated: time.Now().UTC().Format(time.RFC3339),
		Endpoints: map[string]EndpointReport{},
	}
	rep.Config.ServerURL = r.cfg.ServerURL
	rep.Config.Vehicles = r.cfg.Vehicles
	rep.Config.WarmupSeconds = r.cfg.Warmup.Seconds()
	rep.Config.MeasureSeconds = r.cfg.Measure.Seconds()
	rep.Config.DrainSeconds = r.cfg.Drain.Seconds()
	rep.Config.ThinkSeconds = r.cfg.Think.Seconds()
	rep.Config.LookupEvery = r.cfg.LookupEvery
	rep.Config.Archetypes = r.cfg.Archetypes
	rep.Config.RetryAttempts = r.cfg.RetryAttempts
	rep.Config.OutboxCap = r.cfg.OutboxCap
	rep.Config.Seed = r.cfg.Seed
	rep.Config.Codec = r.cfg.Codec
	if rep.Config.Codec == "" {
		rep.Config.Codec = "json"
	}
	rep.Config.BatchSize = r.cfg.BatchSize

	secs := in.measured.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	var uploadsOK, totalReq uint64
	for ep, t := range r.tracks {
		b, a := in.before.counts[ep], in.after.counts[ep]
		e := EndpointReport{
			OK:     a["ok"] - b["ok"],
			Queued: a["queued"] - b["queued"],
			Errors: a["error"] - b["error"],
		}
		e.Requests = e.OK + e.Queued + e.Errors
		e.PerSecond = float64(e.Requests) / secs
		if stats, ok := latencyStats(t.measured); ok {
			e.LatencySeconds = stats
		}
		rep.Endpoints[ep] = e
		totalReq += e.Requests
		if ep == EndpointUpload {
			uploadsOK = e.OK
		}
	}
	rep.Sustained.UploadsPerSec = float64(uploadsOK) / secs
	rep.Sustained.LookupsPerSec = float64(rep.Endpoints[EndpointLookup].OK) / secs
	rep.Sustained.RequestsPerSec = float64(totalReq) / secs
	rep.Sustained.MeasureSeconds = secs

	// Whole-run resilience accounting.
	final := r.snapshot()
	remaining, evicted := r.outboxTotals()
	res := &rep.Resilience
	res.Retries = final.retries
	res.Parked = final.parked
	res.DrainDelivered = r.drainDelivered.Load()
	res.DrainDropped = final.dropped
	res.OutboxRemaining = remaining
	res.OutboxEvicted = evicted
	res.UploadErrors = final.counts[EndpointUpload]["error"]
	res.Lost = res.UploadErrors + res.DrainDropped + res.OutboxEvicted + uint64(remaining)
	res.ShedThenOK = r.shedThenOK.Load()
	if r.shedRetryMeasured != nil {
		if stats, ok := latencyStats(r.shedRetryMeasured); ok {
			res.ShedRetryLatencySeconds = stats
		}
	}

	// Per-shard breakdown of the router-proxied traffic (measure phase only).
	r.shardMu.Lock()
	for id, t := range r.shardTracks {
		if stats, ok := latencyStats(t.measured); ok {
			if rep.Shards == nil {
				rep.Shards = map[string]ShardReport{}
			}
			rep.Shards[id] = ShardReport{Requests: stats.Count, LatencySeconds: stats}
		}
	}
	r.shardMu.Unlock()

	upl := rep.Endpoints[EndpointUpload]
	if upl.Requests > 0 {
		res.ParkRate = float64(upl.Queued) / float64(upl.Requests)
		res.RetryRate = float64(in.after.retries-in.before.retries) / float64(upl.Requests)
		if in.serverBefore.available && in.serverAfter.available {
			res.ShedRate = float64(in.serverAfter.shed-in.serverBefore.shed) / float64(upl.Requests)
		}
	}

	if in.serverBefore.available && in.serverAfter.available {
		srv := &rep.Server
		srv.Available = true
		srv.CPUSecondsDelta = in.serverAfter.cpuSeconds - in.serverBefore.cpuSeconds
		if srv.CPUSecondsDelta < 0 {
			srv.CPUSecondsDelta = 0 // /proc/self/stat unavailable → -1 samples
		}
		srv.CPUUtilization = srv.CPUSecondsDelta / secs
		srv.HeapAllocBytes = in.serverAfter.heapAlloc
		srv.Goroutines = in.serverAfter.goroutines
		srv.ReportsDelta = in.serverAfter.reports - in.serverBefore.reports
		srv.ShedDelta = in.serverAfter.shed - in.serverBefore.shed
		srv.DedupedDelta = in.serverAfter.deduped - in.serverBefore.deduped
	}

	if in.serverBefore.overload && in.serverAfter.overload {
		ov := &rep.Overload
		ov.Available = true
		ov.ModeBefore = in.serverBefore.mode
		ov.ModeAfter = in.serverAfter.mode
		ov.ModeFinal = in.serverFinal.mode
		ov.TransitionsDelta = in.serverAfter.transitions - in.serverBefore.transitions
		if in.serverStart.overload && in.serverFinal.overload {
			ov.TransitionsRun = in.serverFinal.transitions - in.serverStart.transitions
		}
		ov.AdmittedDelta = in.serverAfter.admitted - in.serverBefore.admitted
		ov.AdmissionShedDelta = in.serverAfter.admShed - in.serverBefore.admShed
	}

	// End-of-run SLO verdicts from the target's own burn-rate engine.
	if in.sloOK {
		s := &rep.SLO
		s.Available = true
		s.Healthy = true
		for _, o := range in.slo.Objectives {
			v := SLOVerdict{Name: o.Name, Target: o.Target, Healthy: o.Healthy}
			if len(o.Windows) > 0 {
				v.ErrorRate = o.Windows[0].ErrorRate
				v.BurnRate = o.Windows[0].BurnRate
			}
			for _, a := range o.Alerts {
				if a.Firing {
					v.Firing = append(v.Firing, a.Name)
				}
			}
			if !o.Healthy {
				s.Healthy = false
			}
			s.Objectives = append(s.Objectives, v)
		}
	}

	// Every upload the fleet believes landed, against the server's accepted
	// count over the same span. Duplicate deliveries (a timeout the server
	// actually served, replayed from the outbox) are answered from the
	// idempotency cache, so the server-side count stays exact.
	ver := &rep.Verification
	ver.AckedUploads = final.counts[EndpointUpload]["ok"] + res.DrainDelivered
	if in.serverStart.available && in.serverFinal.available {
		ver.ServerSideAvailable = true
		ver.ServerReportsDelta = in.serverFinal.reports - in.serverStart.reports
		ver.Consistent = ver.ServerReportsDelta == ver.AckedUploads
	}
	return rep
}

// WriteFile writes the report as indented JSON; "-" or "" selects stdout.
func (rep *RunReport) WriteFile(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
