package cs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
	"crowdwifi/internal/solve"
)

// The recovery memo's contract is that it changes no answer: a model selection
// that remembers its group solves returns, bit for bit, what one that solves
// every group afresh returns. The tests run the vehicle workload's
// configuration (bench/drive.go: the UCI map on a 20 m lattice, 60-sample
// windows, 10-sample steps, K ≤ 8) both ways; a zero recoveryMemo, which
// remembers nothing, is the switch.

const (
	uciLattice = 20.0
	uciMaxK    = 8
)

// uciDrive is one seeded 180-sample drive of the UCI route and the fixed grid
// its rounds recover over.
func uciDrive(tb testing.TB, seed uint64) (sim.Scenario, *grid.Grid, []radio.Measurement) {
	tb.Helper()
	sc := sim.UCI()
	ms, err := sc.Drive(sim.DriveConfig{Trajectory: sim.UCIDrive(), NumSamples: 180, SNR: 30}, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	g, err := grid.FromRect(sc.Area, uciLattice)
	if err != nil {
		tb.Fatal(err)
	}
	return sc, g, ms
}

func uciEngine(tb testing.TB, sc sim.Scenario, sel SelectOptions) *Engine {
	tb.Helper()
	area := sc.Area
	e, err := NewEngine(EngineConfig{
		Channel: sc.Channel, Radius: sc.Radius, Lattice: uciLattice, Area: &area,
		WindowSize: 60, StepSize: 10, MergeRadius: 1.5 * uciLattice, Select: sel,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// selectOpts is the workload's SelectOptions with the memo on (nil: the call
// makes its own) or off.
func selectOpts(memo *recoveryMemo) SelectOptions {
	return SelectOptions{MaxK: uciMaxK, Hypothesis: HypothesisOptions{memo: memo}}
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func pointsEqual(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i].X, b[i].X) || !bitsEqual(a[i].Y, b[i].Y) {
			return false
		}
	}
	return true
}

func requireSameHypothesis(t *testing.T, what string, got, want *Hypothesis, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v with the memo, %v without", what, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.K != want.K || !bitsEqual(got.LogLik, want.LogLik) || !bitsEqual(got.BIC, want.BIC) {
		t.Fatalf("%s: K=%d LL=%v BIC=%v with the memo, K=%d LL=%v BIC=%v without",
			what, got.K, got.LogLik, got.BIC, want.K, want.LogLik, want.BIC)
	}
	if !pointsEqual(got.APs, want.APs) {
		t.Fatalf("%s: APs %v with the memo, %v without", what, got.APs, want.APs)
	}
	if len(got.Assign) != len(want.Assign) {
		t.Fatalf("%s: %d assignments with the memo, %d without", what, len(got.Assign), len(want.Assign))
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("%s: reading %d assigned to %d with the memo, %d without", what, i, got.Assign[i], want.Assign[i])
		}
	}
}

// TestRecoveryMemoBitIdentical covers windows of 10 to 60 samples cut from six
// drives. Drive s gives a window of 10·s samples to one worker and one of
// 10·(7−s) to four, so every length is selected serially and in parallel.
func TestRecoveryMemoBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		sc, g, ms := uciDrive(t, seed)
		for _, c := range []struct{ n, workers int }{{10 * int(seed), 1}, {10 * (7 - int(seed)), 4}} {
			// A window somewhere along the drive, a different place per seed.
			off := (37*int(seed) + c.n) % (len(ms) - c.n)
			window := ms[off : off+c.n]
			what := func(call string) string {
				return fmt.Sprintf("%s, seed %d, window [%d:%d], %d workers", call, seed, off, off+c.n, c.workers)
			}
			setWorkers(t, c.workers)
			got, gotErr := SelectModel(g, sc.Channel, window, selectOpts(nil))
			want, wantErr := SelectModel(g, sc.Channel, window, selectOpts(&recoveryMemo{}))
			requireSameHypothesis(t, what("SelectModel"), got, want, gotErr, wantErr)
			if wantErr != nil {
				continue
			}
			k := want.K
			got, gotErr = EvaluateK(g, sc.Channel, window, k, selectOpts(nil).Hypothesis)
			want, wantErr = EvaluateK(g, sc.Channel, window, k, selectOpts(&recoveryMemo{}).Hypothesis)
			requireSameHypothesis(t, what("EvaluateK"), got, want, gotErr, wantErr)
		}
	}
}

// TestRecoveryMemoBitIdenticalWholeDrive runs a whole drive through the engine
// — every partial-window round, every full one, the Flush and the reality
// check — with and without the memo.
func TestRecoveryMemoBitIdenticalWholeDrive(t *testing.T) {
	sc, _, ms := uciDrive(t, 7)
	with := uciEngine(t, sc, selectOpts(nil))
	without := uciEngine(t, sc, selectOpts(&recoveryMemo{}))
	for i, m := range ms {
		got, gotErr := with.Add(m)
		want, wantErr := without.Add(m)
		if gotErr != nil || wantErr != nil || (got == nil) != (want == nil) {
			t.Fatalf("sample %d: round %v (%v) with the memo, %v (%v) without", i, got, gotErr, want, wantErr)
		}
		if want != nil && want.Hypothesis != nil {
			requireSameHypothesis(t, "engine round", got.Hypothesis, want.Hypothesis, nil, nil)
		}
	}
	got, gotErr := with.Flush()
	want, wantErr := without.Flush()
	if gotErr != nil || wantErr != nil {
		t.Fatalf("flush: %v with the memo, %v without", gotErr, wantErr)
	}
	requireSameHypothesis(t, "flush", got.Hypothesis, want.Hypothesis, nil, nil)
	gotFinal, wantFinal := with.FinalEstimates(), without.FinalEstimates()
	if len(gotFinal) != len(wantFinal) || len(wantFinal) == 0 {
		t.Fatalf("%d final estimates with the memo, %d without", len(gotFinal), len(wantFinal))
	}
	for i := range wantFinal {
		if !pointsEqual([]geo.Point{gotFinal[i].Pos}, []geo.Point{wantFinal[i].Pos}) || !bitsEqual(gotFinal[i].Credit, wantFinal[i].Credit) {
			t.Fatalf("final estimate %d is %+v with the memo, %+v without", i, gotFinal[i], wantFinal[i])
		}
	}
}

// bpdnRuns counts the ℓ1 solves a registry's solver metrics recorded.
func bpdnRuns(reg *obs.Registry) float64 {
	return reg.SumCounters("crowdwifi_solver_runs_total", func(l map[string]string) bool { return l["solver"] == "bpdn" })
}

// TestRecoveryMemoSavesSolves pins what the memo is for: on a full UCI window
// a serial model selection meets enough groups twice to skip a fifth of its
// solves.
func TestRecoveryMemoSavesSolves(t *testing.T) {
	sc, g, ms := uciDrive(t, 3)
	setWorkers(t, 1)
	solves := func(memo *recoveryMemo) float64 {
		reg := obs.NewRegistry()
		opts := selectOpts(memo)
		opts.Hypothesis.Recovery.Metrics = solve.NewMetrics(reg)
		if _, err := SelectModel(g, sc.Channel, ms[60:120], opts); err != nil {
			t.Fatal(err)
		}
		return bpdnRuns(reg)
	}
	with, without := solves(nil), solves(&recoveryMemo{})
	if with > 0.8*without {
		t.Fatalf("%v solves with the memo, %v without: want at least a fifth saved", with, without)
	}
}

// cancelAfter is a context that reports cancellation from its (n+1)th Err
// poll on: a deterministic cancel in the middle of a solve.
type cancelAfter struct {
	context.Context
	polls atomic.Int32
	n     int32
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

func TestRecoveryMemoCanceledSolveStoresNothing(t *testing.T) {
	sc, g, ms := uciDrive(t, 2)
	window := ms[60:120]
	assign := make([]int, len(window)) // one group: the 24 strongest readings
	o := HypothesisOptions{GMM: radio.GMMParams{Channel: sc.Channel}, sensing: BuildSensingMatrix(g, sc.Channel, window)}

	cold := o
	cold.memo = &recoveryMemo{}
	want, err := recoverGroup(context.Background(), g, window, assign, 0, cold)
	if err != nil || len(want) == 0 {
		t.Fatalf("cold solve: %v, %v", want, err)
	}

	o.memo = newRecoveryMemo()
	// Poll 1 is RecoverTheta's on entry, 2 and 3 are ADMM iterations 8
	// and 16; the fourth, at iteration 24, cancels.
	ctx := &cancelAfter{Context: context.Background(), n: 3}
	if _, err := recoverGroup(ctx, g, window, assign, 0, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve returned %v, want context.Canceled", err)
	}
	if n := len(o.memo.entries); n != 0 {
		t.Fatalf("a canceled solve left %d memo entries", n)
	}
	got, err := recoverGroup(context.Background(), g, window, assign, 0, o)
	if err != nil || !pointsEqual(got, want) {
		t.Fatalf("after a canceled solve the group recovers to %v (%v), want the cold answer %v", got, err, want)
	}
	if n := len(o.memo.entries); n != 1 {
		t.Fatalf("a finished solve left %d memo entries, want 1", n)
	}
	// The hit is a copy: a caller scribbling on it does not reach the memo.
	got[0] = geo.Point{X: -1, Y: -1}
	again, err := recoverGroup(context.Background(), g, window, assign, 0, o)
	if err != nil || !pointsEqual(again, want) {
		t.Fatalf("memo hit returned %v (%v), want %v", again, err, want)
	}
}

// heldCtx holds the first recovery that polls it (RecoverTheta polls on
// entry) until release is closed, and answers err to every poll.
type heldCtx struct {
	context.Context
	entered, release chan struct{}
	once             sync.Once
	err              error
}

func newHeldCtx(err error) *heldCtx {
	return &heldCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{}), err: err}
}

func (c *heldCtx) Err() error {
	c.once.Do(func() {
		close(c.entered)
		<-c.release
	})
	return c.err
}

type groupAnswer struct {
	pts []geo.Point
	err error
}

// singleFlightGroup is the one-group recovery of TestRecoveryMemoCanceledSolveStoresNothing
// with a fresh memo and its own solve count, and the group's cold answer.
func singleFlightGroup(t *testing.T) (start func(ctx context.Context) chan groupAnswer, o HypothesisOptions, reg *obs.Registry, want []geo.Point) {
	t.Helper()
	sc, g, ms := uciDrive(t, 2)
	window := ms[60:120]
	assign := make([]int, len(window))
	o = HypothesisOptions{GMM: radio.GMMParams{Channel: sc.Channel}, sensing: BuildSensingMatrix(g, sc.Channel, window)}
	cold := o
	cold.memo = &recoveryMemo{}
	want, err := recoverGroup(context.Background(), g, window, assign, 0, cold)
	if err != nil || len(want) == 0 {
		t.Fatalf("cold solve: %v, %v", want, err)
	}
	reg = obs.NewRegistry()
	o.Recovery.Metrics = solve.NewMetrics(reg)
	o.memo = newRecoveryMemo()
	start = func(ctx context.Context) chan groupAnswer {
		c := make(chan groupAnswer, 1)
		go func() {
			pts, err := recoverGroup(ctx, g, window, assign, 0, o)
			c <- groupAnswer{pts, err}
		}()
		return c
	}
	return start, o, reg, want
}

// awaitWaiter returns once a claimer is waiting on memo, and fails the test if
// the claimer answers instead.
func awaitWaiter(t *testing.T, memo *recoveryMemo, claimer chan groupAnswer) {
	t.Helper()
	for {
		memo.mu.Lock()
		waiting := memo.wake != nil
		memo.mu.Unlock()
		if waiting {
			return
		}
		select {
		case a := <-claimer:
			t.Fatalf("the second claimer answered %v (%v) while the first held the key", a.pts, a.err)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestRecoveryMemoSolvesAKeyOnce claims one key from two goroutines while the
// first one's solve is held: the second waits for that answer, and the group
// is solved once.
func TestRecoveryMemoSolvesAKeyOnce(t *testing.T) {
	start, o, reg, want := singleFlightGroup(t)
	held := newHeldCtx(nil)
	first := start(held)
	<-held.entered
	second := start(context.Background())
	awaitWaiter(t, o.memo, second)
	close(held.release)
	for i, a := range []groupAnswer{<-first, <-second} {
		if a.err != nil || !pointsEqual(a.pts, want) {
			t.Fatalf("claimer %d recovered %v (%v), want the cold answer %v", i+1, a.pts, a.err, want)
		}
	}
	if n := bpdnRuns(reg); n != 1 {
		t.Fatalf("two claims of one key made %v solves, want 1", n)
	}
	if n := len(o.memo.entries); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
}

// TestRecoveryMemoFailedOwnerLeavesTheKey: the owner's solve is canceled, so
// the goroutine waiting on the key solves it and stores the answer.
func TestRecoveryMemoFailedOwnerLeavesTheKey(t *testing.T) {
	start, o, reg, want := singleFlightGroup(t)
	held := newHeldCtx(context.Canceled)
	first := start(held)
	<-held.entered
	second := start(context.Background())
	awaitWaiter(t, o.memo, second)
	close(held.release)
	if a := <-first; !errors.Is(a.err, context.Canceled) {
		t.Fatalf("the canceled owner returned %v (%v), want context.Canceled", a.pts, a.err)
	}
	if a := <-second; a.err != nil || !pointsEqual(a.pts, want) {
		t.Fatalf("the waiter recovered %v (%v), want the cold answer %v", a.pts, a.err, want)
	}
	if n := bpdnRuns(reg); n != 1 {
		t.Fatalf("%v solves finished, want the waiter's 1", n)
	}
	if n := len(o.memo.entries); n != 1 {
		t.Fatalf("memo holds %d entries after the waiter's solve, want 1", n)
	}
}

// TestRecoveryMemoCanceledWaiterStoresNothing: a waiter whose context ends
// stops waiting with its error and stores nothing; the owner's answer is
// stored when it finishes.
func TestRecoveryMemoCanceledWaiterStoresNothing(t *testing.T) {
	start, o, reg, want := singleFlightGroup(t)
	held := newHeldCtx(nil)
	first := start(held)
	<-held.entered
	ctx, cancel := context.WithCancel(context.Background())
	second := start(ctx)
	awaitWaiter(t, o.memo, second)
	cancel()
	if a := <-second; !errors.Is(a.err, context.Canceled) || a.pts != nil {
		t.Fatalf("the canceled waiter returned %v (%v), want no points and context.Canceled", a.pts, a.err)
	}
	o.memo.mu.Lock()
	n := len(o.memo.entries)
	o.memo.mu.Unlock()
	if n != 0 {
		t.Fatalf("memo holds %d entries while the owner is held, want 0", n)
	}
	close(held.release)
	if a := <-first; a.err != nil || !pointsEqual(a.pts, want) {
		t.Fatalf("the owner recovered %v (%v), want the cold answer %v", a.pts, a.err, want)
	}
	if n := bpdnRuns(reg); n != 1 {
		t.Fatalf("%v solves finished, want the owner's 1", n)
	}
	if n := len(o.memo.entries); n != 1 {
		t.Fatalf("memo holds %d entries after the owner finished, want 1", n)
	}
}

// TestRecoveryMemoCapStopsStoring fills a small memo past its cap, as the
// exhaustive partition search can the real one: what does not fit is solved
// again, and the answer is the uncapped one.
func TestRecoveryMemoCapStopsStoring(t *testing.T) {
	sc, g, ms := uciDrive(t, 4)
	window := ms[100:107]
	setWorkers(t, 1)
	var opts HypothesisOptions
	want, wantErr := evaluateKExhaustive(g, sc.Channel, window, 2, opts)
	opts.memo = &recoveryMemo{limit: 5, entries: map[string][]geo.Point{}}
	got, gotErr := evaluateKExhaustive(g, sc.Channel, window, 2, opts)
	requireSameHypothesis(t, "exhaustive K=2", got, want, gotErr, wantErr)
	if n := len(opts.memo.entries); n != 5 {
		t.Fatalf("capped memo holds %d entries, want 5", n)
	}
	opts.memo = &recoveryMemo{}
	got, gotErr = evaluateKExhaustive(g, sc.Channel, window, 2, opts)
	requireSameHypothesis(t, "exhaustive K=2, no memo", got, want, gotErr, wantErr)
}

// TestRecoverThetaLeavesCallersMatrixAlone: column normalization runs in
// place on the matrix Orthogonalize built, and on a copy otherwise.
func TestRecoverThetaLeavesCallersMatrixAlone(t *testing.T) {
	sc, g, ms := uciDrive(t, 5)
	group := ms[70:90]
	a := BuildSensingMatrix(g, sc.Channel, group)
	y := make([]float64, len(group))
	for i, m := range group {
		y[i] = m.RSS
	}
	before := a.Clone()
	for _, skip := range []bool{false, true} {
		if _, err := RecoverTheta(context.Background(), a, y, RecoveryOptions{SkipOrthogonalize: skip}); err != nil {
			t.Fatal(err)
		}
		if !equalApprox(a, before, 0) {
			t.Fatalf("RecoverTheta (SkipOrthogonalize=%v) wrote to the caller's sensing matrix", skip)
		}
	}
}

// TestAblationSwitchReachesRecovery: the Prop. 1 ablation asked for through
// HypothesisOptions reaches RecoverTheta. A one-group hypothesis over a
// window short enough to be solved whole must land on the points a direct
// non-orthogonalized RecoverTheta on the same rows gives, not on the
// default's. (The options used to be refilled from the defaults whenever one
// sentinel field was zero, which switched Prop. 1 back on.)
func TestAblationSwitchReachesRecovery(t *testing.T) {
	sc, g, ms := uciDrive(t, 5)
	window := ms[70:90]
	a := BuildSensingMatrix(g, sc.Channel, window)
	y := make([]float64, len(window))
	for i, m := range window {
		y[i] = m.RSS
	}
	gmm := radio.GMMParams{Channel: sc.Channel}
	direct := func(opts RecoveryOptions) []geo.Point {
		theta, err := RecoverTheta(context.Background(), a, y, opts)
		if err != nil {
			t.Fatal(err)
		}
		return mergeClose(locateSupport(g, theta, window, gmm), 1.5*g.Lattice)
	}
	raw, orth := direct(RecoveryOptions{SkipOrthogonalize: true}), direct(RecoveryOptions{})
	if pointsEqual(raw, orth) {
		t.Fatal("the ablation moves nothing on this window: it cannot tell the two paths apart")
	}
	for _, c := range []struct {
		opts RecoveryOptions
		want []geo.Point
	}{{RecoveryOptions{SkipOrthogonalize: true}, raw}, {RecoveryOptions{}, orth}} {
		h, err := EvaluateK(g, sc.Channel, window, 1, HypothesisOptions{Recovery: c.opts})
		if err != nil {
			t.Fatal(err)
		}
		if !pointsEqual(h.APs, c.want) {
			t.Fatalf("EvaluateK with %+v recovered %v, a direct RecoverTheta %v", c.opts, h.APs, c.want)
		}
	}
}

// TestFinalEstimatesHonorsMinCredit: FinalEstimates filters on the configured
// credit like Estimates does, not on the default.
func TestFinalEstimatesHonorsMinCredit(t *testing.T) {
	cfg := validEngineConfig()
	cfg.MinCredit = 2
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.estimates = []Estimate{
		{Pos: geo.Point{X: 10, Y: 10}, Credit: 1},
		{Pos: geo.Point{X: 40, Y: 40}, Credit: 2},
		{Pos: geo.Point{X: 80, Y: 80}, Credit: 5},
	}
	finals, ests := e.FinalEstimates(), e.creditedEstimates()
	if len(ests) != 1 || len(finals) != 1 || finals[0].Credit != 5 {
		t.Fatalf("MinCredit 2: creditedEstimates kept %+v, FinalEstimates %+v; both must keep only the credit-5 estimate", ests, finals)
	}
}

var hypothesisSink *Hypothesis

// BenchmarkSelectModelUCIWindow60 is one full-window round's model selection
// at the vehicle workload's configuration.
func BenchmarkSelectModelUCIWindow60(b *testing.B) {
	sc, g, ms := uciDrive(b, 1)
	window := ms[60:120]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := SelectModel(g, sc.Channel, window, SelectOptions{MaxK: uciMaxK})
		if err != nil {
			b.Fatal(err)
		}
		hypothesisSink = h
	}
}

// BenchmarkEngineDrive180 is one whole drive: 18 rounds, the Flush and the
// reality check.
func BenchmarkEngineDrive180(b *testing.B) {
	sc, _, ms := uciDrive(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := uciEngine(b, sc, SelectOptions{MaxK: uciMaxK})
		if _, err := e.AddBatch(ms); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Flush(); err != nil {
			b.Fatal(err)
		}
		if len(e.FinalEstimates()) == 0 {
			b.Fatal("no final estimates")
		}
	}
}
