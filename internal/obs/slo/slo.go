// Package slo evaluates service-level objectives from the metrics registry.
//
// An Objective declares a target (e.g. 99.9% of uploads succeed) and a
// Source returning cumulative (good, total) event counts. The Engine samples
// every source on a fixed cadence into a bounded ring, derives windowed
// error rates by differencing ring samples, and converts them to burn rates:
// burn = errorRate / (1 - target), so burn 1.0 consumes the error budget
// exactly at the rate that exhausts it at the window's end.
//
// Alerting follows the multi-window multi-burn-rate recipe: an alert names a
// short and a long window plus a threshold, and fires only when the burn
// rate exceeds the threshold in BOTH windows — the short window makes the
// alert reset quickly once the problem stops, the long window keeps a brief
// blip from paging. The defaults are the conventional fast page
// (5m/1h at 14.4× — budget gone in 2 days) and slow ticket (6h/3d at 1×).
//
// The Status is served at /debug/slo as JSON, and the same numbers are
// exported as crowdwifi_slo_* gauges for scrapers.
package slo

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"

	"crowdwifi/internal/obs"
)

// Objective is one declarative SLO: Source returns cumulative good and total
// event counts (monotone non-decreasing); Target is the good/total fraction
// the service promises, e.g. 0.999.
type Objective struct {
	Name        string
	Description string
	Target      float64
	Source      func() (good, total float64)
}

// BurnAlert is one multi-window burn-rate alert: it fires while the burn
// rate is at or above Threshold in both the Short and the Long window.
type BurnAlert struct {
	Name      string
	Short     time.Duration
	Long      time.Duration
	Threshold float64
}

// DefaultAlerts are the conventional fast/slow multi-burn-rate pair.
func DefaultAlerts() []BurnAlert {
	return []BurnAlert{
		{Name: "fast", Short: 5 * time.Minute, Long: time.Hour, Threshold: 14.4},
		{Name: "slow", Short: 6 * time.Hour, Long: 72 * time.Hour, Threshold: 1.0},
	}
}

// DefaultWindows are the horizons reported per objective — the union of the
// default alerts' windows.
var DefaultWindows = []time.Duration{5 * time.Minute, time.Hour, 6 * time.Hour, 72 * time.Hour}

// DefaultInterval is the sampling cadence. 10 s resolves the 5 m fast window
// into 30 points while a 3 d retention stays under 26k samples per objective.
const DefaultInterval = 10 * time.Second

type sample struct {
	t           time.Time
	good, total float64
}

// Config configures an Engine. Zero values select the defaults; Registry is
// optional (nil skips the crowdwifi_slo_* gauges).
type Config struct {
	Objectives []Objective
	Alerts     []BurnAlert
	Windows    []time.Duration
	Interval   time.Duration
	Registry   *obs.Registry
	Now        func() time.Time
}

// Engine samples objectives and serves their evaluated status.
type Engine struct {
	mu         sync.Mutex
	objectives []Objective
	alerts     []BurnAlert
	windows    []time.Duration
	interval   time.Duration
	retention  time.Duration
	now        func() time.Time
	rings      [][]sample // parallel to objectives

	reg *obs.Registry
}

// New builds an Engine and takes an initial sample so the first Status is
// never empty.
func New(cfg Config) *Engine {
	e := &Engine{
		objectives: cfg.Objectives,
		alerts:     cfg.Alerts,
		windows:    cfg.Windows,
		interval:   cfg.Interval,
		now:        cfg.Now,
		reg:        cfg.Registry,
	}
	if len(e.alerts) == 0 {
		e.alerts = DefaultAlerts()
	}
	if len(e.windows) == 0 {
		e.windows = append([]time.Duration(nil), DefaultWindows...)
	}
	if e.interval <= 0 {
		e.interval = DefaultInterval
	}
	for _, w := range e.windows {
		if w > e.retention {
			e.retention = w
		}
	}
	for _, a := range e.alerts {
		if a.Long > e.retention {
			e.retention = a.Long
		}
		if a.Short > e.retention {
			e.retention = a.Short
		}
	}
	e.retention += e.interval
	if e.now == nil {
		e.now = time.Now
	}
	e.rings = make([][]sample, len(e.objectives))
	e.Sample()
	// Scrapes see live burn rates even between ticks.
	if e.reg != nil {
		e.reg.OnScrape(e.Sample)
	}
	return e
}

// Sample reads every objective's source once and appends to its ring,
// pruning samples older than the retention horizon. Safe for concurrent use.
func (e *Engine) Sample() {
	if e == nil {
		return
	}
	e.mu.Lock()
	now := e.now()
	for i, obj := range e.objectives {
		good, total := obj.Source()
		ring := append(e.rings[i], sample{t: now, good: good, total: total})
		cutoff := now.Add(-e.retention)
		trim := 0
		// Keep one sample at or before the cutoff as the differencing base.
		for trim < len(ring)-1 && !ring[trim+1].t.After(cutoff) {
			trim++
		}
		e.rings[i] = ring[trim:]
	}
	st := e.statusLocked()
	e.mu.Unlock()
	e.export(st)
}

// Run samples on the engine's interval until ctx is canceled.
func (e *Engine) Run(ctx context.Context) {
	if e == nil {
		return
	}
	t := time.NewTicker(e.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			e.Sample()
		}
	}
}

// WindowStatus is one objective's evaluation over one horizon.
type WindowStatus struct {
	Window    string  `json:"window"`
	Good      float64 `json:"good"`
	Total     float64 `json:"total"`
	ErrorRate float64 `json:"errorRate"`
	BurnRate  float64 `json:"burnRate"`
}

// AlertStatus is one burn-rate alert's evaluation.
type AlertStatus struct {
	Name        string  `json:"name"`
	ShortWindow string  `json:"shortWindow"`
	LongWindow  string  `json:"longWindow"`
	Threshold   float64 `json:"threshold"`
	ShortBurn   float64 `json:"shortBurn"`
	LongBurn    float64 `json:"longBurn"`
	Firing      bool    `json:"firing"`
}

// ObjectiveStatus is one objective's full evaluation.
type ObjectiveStatus struct {
	Name        string         `json:"name"`
	Description string         `json:"description,omitempty"`
	Target      float64        `json:"target"`
	Good        float64        `json:"good"`
	Total       float64        `json:"total"`
	Windows     []WindowStatus `json:"windows"`
	Alerts      []AlertStatus  `json:"alerts"`
	Healthy     bool           `json:"healthy"`
}

// Status is the /debug/slo document.
type Status struct {
	GeneratedAt time.Time         `json:"generatedAt"`
	Objectives  []ObjectiveStatus `json:"objectives"`
}

// Status evaluates every objective against the current ring contents.
func (e *Engine) Status() Status {
	if e == nil {
		return Status{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statusLocked()
}

func (e *Engine) statusLocked() Status {
	now := e.now()
	st := Status{GeneratedAt: now}
	for i, obj := range e.objectives {
		ring := e.rings[i]
		os := ObjectiveStatus{
			Name:        obj.Name,
			Description: obj.Description,
			Target:      obj.Target,
			Healthy:     true,
		}
		if n := len(ring); n > 0 {
			os.Good, os.Total = ring[n-1].good, ring[n-1].total
		}
		for _, w := range e.windows {
			good, total, errRate, burn := burnOver(ring, now, w, obj.Target)
			os.Windows = append(os.Windows, WindowStatus{
				Window: w.String(), Good: good, Total: total,
				ErrorRate: errRate, BurnRate: burn,
			})
		}
		for _, a := range e.alerts {
			_, _, _, shortBurn := burnOver(ring, now, a.Short, obj.Target)
			_, _, _, longBurn := burnOver(ring, now, a.Long, obj.Target)
			firing := shortBurn >= a.Threshold && longBurn >= a.Threshold
			os.Alerts = append(os.Alerts, AlertStatus{
				Name:        a.Name,
				ShortWindow: a.Short.String(),
				LongWindow:  a.Long.String(),
				Threshold:   a.Threshold,
				ShortBurn:   shortBurn,
				LongBurn:    longBurn,
				Firing:      firing,
			})
			if firing {
				os.Healthy = false
			}
		}
		st.Objectives = append(st.Objectives, os)
	}
	return st
}

// burnOver differences the ring across the window ending now. A window
// longer than the ring's span falls back to the oldest sample (burn over
// the observed lifetime); an empty or single-sample ring, or a window with
// no events, reports zero burn rather than NaN.
func burnOver(ring []sample, now time.Time, window time.Duration, target float64) (good, total, errRate, burn float64) {
	if len(ring) == 0 {
		return 0, 0, 0, 0
	}
	cur := ring[len(ring)-1]
	cutoff := now.Add(-window)
	base := ring[0]
	for _, s := range ring {
		if s.t.After(cutoff) {
			break
		}
		base = s
	}
	good = cur.good - base.good
	total = cur.total - base.total
	if total <= 0 {
		return good, total, 0, 0
	}
	errRate = 1 - good/total
	if errRate < 0 {
		errRate = 0
	}
	budget := 1 - target
	if budget <= 0 {
		if errRate > 0 {
			return good, total, errRate, math.Inf(1)
		}
		return good, total, errRate, 0
	}
	return good, total, errRate, errRate / budget
}

// export refreshes the crowdwifi_slo_* gauges from an evaluated status.
func (e *Engine) export(st Status) {
	if e.reg == nil {
		return
	}
	for _, os := range st.Objectives {
		for _, w := range os.Windows {
			e.reg.Gauge("crowdwifi_slo_burn_rate",
				"Error-budget burn rate over the window (1.0 = budget exactly consumed at window end).",
				obs.L("slo", os.Name), obs.L("window", w.Window)).Set(w.BurnRate)
		}
		for _, a := range os.Alerts {
			v := 0.0
			if a.Firing {
				v = 1
			}
			e.reg.Gauge("crowdwifi_slo_alert_firing",
				"1 while the multi-window burn-rate alert fires.",
				obs.L("slo", os.Name), obs.L("alert", a.Name)).Set(v)
		}
	}
}

// Handler serves the evaluated status as JSON (GET only).
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.Status())
	})
}

// CounterRatio builds a Source over one counter family: total sums every
// series accepted by match, good the subset also accepted by isGood (both
// receive the series' parsed labels). The conventional availability shape:
// match selects the route, isGood rejects 5xx codes.
func CounterRatio(reg *obs.Registry, family string, match, isGood func(labels map[string]string) bool) func() (float64, float64) {
	return func() (float64, float64) {
		total := reg.SumCounters(family, match)
		good := reg.SumCounters(family, func(ls map[string]string) bool {
			if match != nil && !match(ls) {
				return false
			}
			return isGood == nil || isGood(ls)
		})
		return good, total
	}
}

// LatencyUnder builds a Source over one histogram family: good counts
// observations at or under threshold (which should be one of the family's
// bucket bounds for an exact answer), total counts all observations, summed
// across every series accepted by match.
func LatencyUnder(reg *obs.Registry, family string, match func(labels map[string]string) bool, threshold float64) func() (float64, float64) {
	return func() (float64, float64) {
		le, total := reg.SumHistogramBuckets(family, match, threshold)
		return float64(le), float64(total)
	}
}
