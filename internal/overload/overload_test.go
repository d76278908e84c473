package overload

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdwifi/internal/obs"
)

// --- Controller -----------------------------------------------------------

// probeStub is a settable disk probe counting its calls.
type probeStub struct {
	mu    sync.Mutex
	err   error
	calls int
}

func (p *probeStub) set(err error) {
	p.mu.Lock()
	p.err = err
	p.mu.Unlock()
}

func (p *probeStub) probe(context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	return p.err
}

func TestControllerReadOnlyRecoveryCycle(t *testing.T) {
	var p probeStub
	var edges, reasons []string
	a := New(Options{Probe: p.probe, OnTransition: func(from, to Mode, reason string) {
		edges = append(edges, from.String()+">"+to.String())
		reasons = append(reasons, reason)
	}})
	c := a.Controller()

	p.set(errors.New("disk still broken"))
	c.ReportDurabilityError(errors.New("fsync: injected"))
	if got := c.Mode(); got != ModeReadOnly {
		t.Fatalf("mode = %v, want read-only", got)
	}
	if reason := reasons[len(reasons)-1]; !strings.Contains(reason, "fsync") {
		t.Fatalf("reason = %q, want the durability error in it", reason)
	}

	// Probes fail: stay read-only.
	c.step(context.Background())
	c.step(context.Background())
	if got := c.Mode(); got != ModeReadOnly {
		t.Fatalf("mode = %v, want read-only while probes fail", got)
	}

	// Disk heals: first success → recovering, recoverAfter more → healthy.
	p.set(nil)
	c.step(context.Background())
	if got := c.Mode(); got != ModeRecovering {
		t.Fatalf("mode = %v, want recovering after first good probe", got)
	}
	for i := 0; i < recoverAfter; i++ {
		c.step(context.Background())
	}
	if got := c.Mode(); got != ModeHealthy {
		t.Fatalf("mode = %v, want healthy after stable probes", got)
	}
	if p.calls != 3+recoverAfter {
		t.Fatalf("probes = %d, want %d", p.calls, 3+recoverAfter)
	}
	if got, want := strings.Join(edges, ","), "healthy>read-only,read-only>recovering,recovering>healthy"; got != want {
		t.Fatalf("transitions = %s, want %s", got, want)
	}
	// Healthy: the probe loop leaves the disk alone.
	c.step(context.Background())
	if p.calls != 3+recoverAfter {
		t.Fatalf("a healthy step probed the disk")
	}
}

func TestControllerRecoveringRelapsesOnProbeFailure(t *testing.T) {
	var p probeStub
	c := New(Options{Probe: p.probe}).Controller()
	c.ReportDurabilityError(errors.New("enospc"))
	c.step(context.Background())
	if got := c.Mode(); got != ModeRecovering {
		t.Fatalf("mode = %v, want recovering", got)
	}
	p.set(errors.New("relapse"))
	c.step(context.Background())
	if got := c.Mode(); got != ModeReadOnly {
		t.Fatalf("mode = %v, want read-only after relapse", got)
	}
}

func TestControllerIllegalEdgesRejected(t *testing.T) {
	c := New(Options{}).Controller()
	if c.transition(ModeRecovering, "nope") {
		t.Fatal("healthy → recovering must be illegal")
	}
	c.ReportDurabilityError(nil)
	if c.transition(ModeHealthy, "nope") {
		t.Fatal("read-only → healthy must be illegal: the way back is probe-verified")
	}
	// Without a probe the server stays read-only until restart.
	c.step(context.Background())
	if got := c.Mode(); got != ModeReadOnly {
		t.Fatalf("mode = %v, want read-only to survive illegal edges", got)
	}
}

// --- Family bound ---------------------------------------------------------

func TestLimiterAdmitsUpToLimitThenSheds(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(Options{Max: 2, Registry: reg})
	d1 := a.Admit(context.Background(), FamilyUpload, true)
	d2 := a.Admit(context.Background(), FamilyUpload, true)
	if !d1.OK || !d2.OK {
		t.Fatal("acquire below the cap shed")
	}
	// The third waits out the sojourn deadline, then sheds with the
	// constant hint.
	start := time.Now()
	d := a.Admit(context.Background(), FamilyUpload, true)
	if d.OK {
		t.Fatal("third acquire admitted beyond the cap")
	}
	if waited := time.Since(start); waited < queueDeadline {
		t.Fatalf("shed after %v, want a wait of the %v sojourn deadline", waited, queueDeadline)
	}
	if d.ReadOnly || d.RetryAfter != ShedRetryAfter {
		t.Fatalf("limit shed: ReadOnly=%v RetryAfter=%v, want false/%v", d.ReadOnly, d.RetryAfter, ShedRetryAfter)
	}
	d1.Release(0, true)
	d2.Release(0, true)
	d3 := a.Admit(context.Background(), FamilyUpload, true)
	if !d3.OK {
		t.Fatal("acquire after release shed")
	}
	d3.Release(0, true)
	upload := func(ls map[string]string) bool { return ls["family"] == "upload" }
	admitted := reg.SumCounters("crowdwifi_admission_admitted_total", upload)
	shed := reg.SumCounters("crowdwifi_admission_shed_total", upload)
	fam := &a.fams[FamilyUpload]
	if admitted != 3 || shed != 1 || len(fam.slots) != 0 || fam.waiting.Load() != 0 {
		t.Fatalf("admitted %v, shed %v, %d in flight, %d queued; want 3 admitted, 1 shed, nothing in flight or queued",
			admitted, shed, len(fam.slots), fam.waiting.Load())
	}
}

func TestLimiterQueueHandoff(t *testing.T) {
	a := New(Options{Max: 1})
	d1 := a.Admit(context.Background(), FamilyUpload, true)
	if !d1.OK {
		t.Fatal("first acquire shed")
	}
	got := make(chan bool, 1)
	go func() {
		d := a.Admit(context.Background(), FamilyUpload, true)
		d.Release(0, true)
		got <- d.OK
	}()
	for a.fams[FamilyUpload].waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	d1.Release(0, true)
	if ok := <-got; !ok {
		t.Fatal("queued waiter was shed despite a freed slot")
	}
}

func TestLimiterRespectsContextCancel(t *testing.T) {
	a := New(Options{Max: 1})
	d1 := a.Admit(context.Background(), FamilyUpload, true)
	if !d1.OK {
		t.Fatal("first acquire shed")
	}
	defer d1.Release(0, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if d := a.Admit(ctx, FamilyUpload, true); d.OK {
		t.Fatal("cancelled waiter was admitted")
	}
	if waited := time.Since(start); waited >= queueDeadline {
		t.Fatalf("cancelled waiter held on for %v", waited)
	}
}

// TestLimiterQueueIsBounded: with the cap taken and queueDepth requests
// already waiting, the next one is shed at once instead of queueing.
func TestLimiterQueueIsBounded(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(Options{Max: 1, Registry: reg})
	hold := a.Admit(context.Background(), FamilyUpload, true)
	defer hold.Release(0, true)
	var wg sync.WaitGroup
	for i := 0; i < queueDepth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Admit(context.Background(), FamilyUpload, true)
		}()
	}
	for a.fams[FamilyUpload].waiting.Load() < queueDepth {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if d := a.Admit(context.Background(), FamilyUpload, true); d.OK {
		t.Fatal("admitted past a full queue")
	}
	if waited := time.Since(start); waited >= queueDeadline {
		t.Fatalf("the request over the queue bound waited %v; want an immediate shed", waited)
	}
	wg.Wait()
	if got := reg.SumCounters("crowdwifi_admission_shed_total", nil); got != queueDepth+1 {
		t.Fatalf("shed = %v, want every waiter (%d) plus the one over the bound", got, queueDepth+1)
	}
}

// --- Admission ------------------------------------------------------------

func TestAdmissionFamiliesAreIsolated(t *testing.T) {
	a := New(Options{Max: 1})
	hold := a.Admit(context.Background(), FamilyUpload, true)
	if !hold.OK {
		t.Fatal("first upload rejected")
	}
	defer hold.Release(0, true)
	for _, f := range []Family{FamilyLookup, FamilyControl} {
		d := a.Admit(context.Background(), f, false)
		if !d.OK {
			t.Fatalf("%s shed while only uploads are saturated", f)
		}
		d.Release(0, true)
	}
}

func TestAdmissionReadOnlyRejectsMutationsServesReads(t *testing.T) {
	a := New(Options{Registry: obs.NewRegistry()})
	a.Controller().ReportDurabilityError(errors.New("enospc"))

	d := a.Admit(context.Background(), FamilyUpload, true)
	if d.OK || !d.ReadOnly {
		t.Fatalf("mutation while read-only: OK=%v ReadOnly=%v, want rejected read-only", d.OK, d.ReadOnly)
	}
	if want := (recoverAfter + 1) * probeInterval; d.RetryAfter != want {
		t.Fatalf("read-only Retry-After = %v, want the probe horizon %v", d.RetryAfter, want)
	}

	d = a.Admit(context.Background(), FamilyLookup, false)
	if !d.OK {
		t.Fatal("lookup rejected while read-only; reads must keep flowing")
	}
	d.Release(0, true)
}

func TestAdmissionMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	a := New(Options{Registry: reg})
	a.Controller().ReportDurabilityError(nil)
	a.Admit(context.Background(), FamilyUpload, true)
	d := a.Admit(context.Background(), FamilyLookup, false)
	if d.OK {
		d.Release(0, true)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"crowdwifi_overload_mode 2",
		`crowdwifi_overload_transitions_total{from="healthy",to="read-only"} 1`,
		`crowdwifi_admission_shed_total{family="upload",reason="read_only"} 1`,
		`crowdwifi_admission_admitted_total{family="lookup"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
