package slo

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"crowdwifi/internal/obs"
)

// fakeClock drives the engine deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func src(good, total *float64) func() (float64, float64) {
	return func() (float64, float64) { return *good, *total }
}

func TestEngineBurnRateMath(t *testing.T) {
	clock := newClock()
	var good, total float64
	e := New(Config{
		Objectives: []Objective{{Name: "avail", Target: 0.999, Source: src(&good, &total)}},
		Now:        clock.now,
	})

	// 1% error rate against a 0.1% budget = burn 10.
	clock.advance(5 * time.Minute)
	good, total = 990, 1000
	e.Sample()
	st := e.Status()
	if len(st.Objectives) != 1 {
		t.Fatalf("objectives = %d", len(st.Objectives))
	}
	o := st.Objectives[0]
	if o.Good != 990 || o.Total != 1000 {
		t.Fatalf("good/total = %v/%v", o.Good, o.Total)
	}
	w5m := o.Windows[0]
	if w5m.Window != "5m0s" {
		t.Fatalf("first window = %s, want 5m0s", w5m.Window)
	}
	if got := w5m.ErrorRate; math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("5m error rate = %v, want 0.01", got)
	}
	if got := w5m.BurnRate; math.Abs(got-10) > 1e-6 {
		t.Fatalf("5m burn rate = %v, want 10", got)
	}
	// Burn 10 < fast threshold 14.4, but well over the slow threshold 1.0 —
	// and the short run means every window falls back to the same lifetime
	// delta, so the slow alert fires and marks the objective unhealthy.
	fast, slow := o.Alerts[0], o.Alerts[1]
	if fast.Firing {
		t.Fatalf("fast alert firing at burn 10 (threshold %v)", fast.Threshold)
	}
	if !slow.Firing {
		t.Fatalf("slow alert not firing at sustained burn 10 (threshold %v)", slow.Threshold)
	}
	if o.Healthy {
		t.Fatal("objective healthy while the slow alert fires")
	}
}

func TestEngineAlertFiresOnFastBurn(t *testing.T) {
	clock := newClock()
	var good, total float64
	e := New(Config{
		Objectives: []Objective{{Name: "avail", Target: 0.999, Source: src(&good, &total)}},
		Now:        clock.now,
	})
	// 2% error rate = burn 20, over the fast threshold. The ring spans only
	// 5 minutes, so the 1h long window falls back to the oldest sample and
	// sees the same burn — both windows agree and the fast alert fires.
	clock.advance(5 * time.Minute)
	good, total = 980, 1000
	e.Sample()
	o := e.Status().Objectives[0]
	fast := o.Alerts[0]
	if !fast.Firing {
		t.Fatalf("fast alert not firing at burn %v/%v (threshold %v)",
			fast.ShortBurn, fast.LongBurn, fast.Threshold)
	}
	if o.Healthy {
		t.Fatal("objective healthy while an alert fires")
	}
}

func TestEngineRecoveryStopsFastAlert(t *testing.T) {
	clock := newClock()
	var good, total float64
	e := New(Config{
		Objectives: []Objective{{Name: "avail", Target: 0.999, Source: src(&good, &total)}},
		Now:        clock.now,
	})
	clock.advance(time.Minute)
	good, total = 980, 1000 // burn 20: firing
	e.Sample()
	if !e.Status().Objectives[0].Alerts[0].Firing {
		t.Fatal("precondition: fast alert should fire")
	}
	// One clean hour: the 5m short window sees only good traffic, so the
	// fast alert stops even though lifetime errors remain.
	for i := 0; i < 12; i++ {
		clock.advance(5 * time.Minute)
		good += 1000
		total += 1000
		e.Sample()
	}
	o := e.Status().Objectives[0]
	if o.Alerts[0].Firing {
		t.Fatalf("fast alert still firing after recovery: short=%v long=%v",
			o.Alerts[0].ShortBurn, o.Alerts[0].LongBurn)
	}
}

func TestEngineZeroTraffic(t *testing.T) {
	clock := newClock()
	var good, total float64
	e := New(Config{
		Objectives: []Objective{{Name: "avail", Target: 0.999, Source: src(&good, &total)}},
		Now:        clock.now,
	})
	clock.advance(time.Hour)
	e.Sample()
	o := e.Status().Objectives[0]
	for _, w := range o.Windows {
		if w.BurnRate != 0 || w.ErrorRate != 0 {
			t.Fatalf("window %s burn=%v err=%v with zero traffic", w.Window, w.BurnRate, w.ErrorRate)
		}
	}
	if !o.Healthy {
		t.Fatal("zero traffic should be healthy")
	}
}

func TestEngineRingPrunes(t *testing.T) {
	clock := newClock()
	var good, total float64
	e := New(Config{
		Objectives: []Objective{{Name: "avail", Target: 0.999, Source: src(&good, &total)}},
		Windows:    []time.Duration{time.Minute},
		Alerts:     []BurnAlert{{Name: "fast", Short: 30 * time.Second, Long: time.Minute, Threshold: 10}},
		Interval:   time.Second,
		Now:        clock.now,
	})
	for i := 0; i < 1000; i++ {
		clock.advance(time.Second)
		total += 10
		good += 10
		e.Sample()
	}
	e.mu.Lock()
	n := len(e.rings[0])
	e.mu.Unlock()
	// Retention is max(window, long) + interval = 61s: the ring must stay
	// near that bound instead of growing with run length.
	if n > 70 {
		t.Fatalf("ring grew to %d samples; retention not applied", n)
	}
}

func TestEngineExportsGauges(t *testing.T) {
	clock := newClock()
	reg := obs.NewRegistry()
	var good, total float64
	e := New(Config{
		Objectives: []Objective{{Name: "avail", Target: 0.999, Source: src(&good, &total)}},
		Registry:   reg,
		Now:        clock.now,
	})
	clock.advance(5 * time.Minute)
	good, total = 990, 1000
	e.Sample()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	for _, want := range []string{
		`crowdwifi_slo_burn_rate{slo="avail",window="5m0s"}`,
		`crowdwifi_slo_alert_firing{alert="fast",slo="avail"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

func TestHandlerServesStatusJSON(t *testing.T) {
	clock := newClock()
	var good, total float64 = 99, 100
	e := New(Config{
		Objectives: []Objective{{Name: "avail", Target: 0.9, Source: src(&good, &total)}},
		Now:        clock.now,
	})
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode: %v: %s", err, rec.Body.String())
	}
	if len(st.Objectives) != 1 || st.Objectives[0].Name != "avail" {
		t.Fatalf("objectives = %+v", st.Objectives)
	}
	if len(st.Objectives[0].Windows) == 0 || len(st.Objectives[0].Alerts) == 0 {
		t.Fatal("objective missing windows or alerts")
	}

	rec = httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/slo", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", rec.Code)
	}
}

func TestCounterRatioAndLatencyUnder(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("req_total", "", obs.L("route", "/v1/reports"), obs.L("code", "201")).Add(90)
	reg.Counter("req_total", "", obs.L("route", "/v1/reports"), obs.L("code", "500")).Add(10)
	reg.Counter("req_total", "", obs.L("route", "/other"), obs.L("code", "200")).Add(1000)

	ratio := CounterRatio(reg, "req_total",
		func(ls map[string]string) bool { return ls["route"] == "/v1/reports" },
		func(ls map[string]string) bool { return ls["code"] == "201" })
	good, total := ratio()
	if good != 90 || total != 100 {
		t.Fatalf("CounterRatio = %v/%v, want 90/100", good, total)
	}

	h := reg.Histogram("lat_seconds", "", []float64{0.1, 0.5, 1}, obs.L("route", "/v1/lookup"))
	for _, v := range []float64{0.05, 0.3, 0.5, 0.9, 2} {
		h.Observe(v)
	}
	under := LatencyUnder(reg, "lat_seconds",
		func(ls map[string]string) bool { return ls["route"] == "/v1/lookup" }, 0.5)
	good, total = under()
	if good != 3 || total != 5 {
		t.Fatalf("LatencyUnder = %v/%v, want 3/5", good, total)
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	e.Sample()
	if st := e.Status(); len(st.Objectives) != 0 {
		t.Fatal("nil engine produced objectives")
	}
}
