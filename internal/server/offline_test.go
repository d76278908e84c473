package server

// The offline step's contract: a store filled the way bench/'s
// mixed_aggregate preload fills one aggregates to the same fused map and
// reliabilities, bit for bit, whatever the inference and fusion loops look
// like inside; and inference that leaves the float64 range does not take the
// map with it.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"crowdwifi/internal/crowd"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/rng"
)

// offlineShape sizes a generated store.
type offlineShape struct {
	segments, reports, vehicles, patterns, labelsPerVehicle int
	spammers                                                float64
}

// mixedShape is bench/'s mixed_aggregate preload: 50 k reports of 8 APs from
// 1 000 vehicles (10 % spammers) over 2 500 segments, 2 000 patterns and 20
// labels per vehicle.
var mixedShape = offlineShape{segments: 2500, reports: 50000, vehicles: 1000, patterns: 2000, labelsPerVehicle: 20, spammers: 0.10}

// offlineWorld draws what bench/gen.go draws, in the same way: segments on a
// grid of 226 m cells with eight true APs each, reports within 2 m of them (a
// spammer's anywhere in the cell), patterns that are a segment's constellation
// or a copy shifted 30 m, and labels right nine times in ten (a spammer's at
// random).
func offlineWorld(seed uint64, sh offlineShape) ([]BatchItem, []Pattern, []Label) {
	const cell = 226.0
	r := rng.New(seed).Split(1)
	cols := int(math.Ceil(math.Sqrt(float64(sh.segments))))
	origin := func(s int) (float64, float64) { return cell * float64(s%cols), cell * float64(s/cols) }
	aps := make([][]geo.Point, sh.segments)
	for s := range aps {
		ox, oy := origin(s)
		skip := r.Intn(9)
		for k := 0; k < 9; k++ {
			if k != skip {
				aps[s] = append(aps[s], geo.Point{X: ox + 38 + 75*float64(k%3) + r.Uniform(-20, 20), Y: oy + 38 + 75*float64(k/3) + r.Uniform(-20, 20)})
			}
		}
	}
	spammer := make([]bool, sh.vehicles)
	for v := range spammer {
		spammer[v] = r.Float64() < sh.spammers
	}

	pr := rng.New(seed).Split(2)
	items := make([]BatchItem, sh.reports)
	for i := range items {
		s, v := pr.Intn(sh.segments), pr.Intn(sh.vehicles)
		ox, oy := origin(s)
		rep := Report{Vehicle: fmt.Sprintf("veh-%04d", v), Segment: fmt.Sprintf("seg-%05d", s), APs: make([]APReport, len(aps[s]))}
		for k, ap := range aps[s] {
			p := geo.Point{X: ap.X + pr.Normal(0, 2), Y: ap.Y + pr.Normal(0, 2)}
			if spammer[v] {
				p = geo.Point{X: ox + pr.Uniform(0, cell), Y: oy + pr.Uniform(0, cell)}
			}
			rep.APs[k] = APReport{X: p.X, Y: p.Y, Credit: float64(2 + pr.Intn(8))}
		}
		items[i].Report = rep
	}

	lr := rng.New(seed).Split(3)
	ps := make([]Pattern, sh.patterns)
	truth := make([]int, sh.patterns)
	for i := range ps {
		s := lr.Intn(sh.segments)
		truth[i] = 1
		shift := 0.0
		if lr.Bernoulli(0.5) {
			truth[i], shift = -1, 30
		}
		ps[i] = Pattern{ID: i, Segment: fmt.Sprintf("seg-%05d", s), APs: make([]APReport, len(aps[s]))}
		for k, ap := range aps[s] {
			ps[i].APs[k] = APReport{X: ap.X + shift, Y: ap.Y + shift, Credit: 1}
		}
	}
	var ls []Label
	for v := 0; v < sh.vehicles; v++ {
		for k := 0; k < sh.labelsPerVehicle; k++ {
			task := (v*sh.labelsPerVehicle + k*101) % sh.patterns
			value := truth[task]
			switch {
			case spammer[v]:
				value = 1 - 2*lr.Intn(2)
			case lr.Bernoulli(0.1):
				value = -value
			}
			ls = append(ls, Label{Vehicle: fmt.Sprintf("veh-%04d", v), TaskID: task, Value: value})
		}
	}
	return items, ps, ls
}

// offlineStore fills an in-memory store with offlineWorld's draw.
func offlineStore(tb testing.TB, seed uint64, sh offlineShape) *Store {
	tb.Helper()
	items, ps, ls := offlineWorld(seed, sh)
	store := NewStore(10)
	if err := errors.Join(store.AddReportBatch(context.Background(), items)...); err != nil {
		tb.Fatal(err)
	}
	for _, p := range ps {
		if _, err := store.AddPatternKeyed(context.Background(), "", p.Segment, p.APs); err != nil {
			tb.Fatal(err)
		}
	}
	if err := store.AddLabels(ls); err != nil {
		tb.Fatal(err)
	}
	return store
}

// offlineDigest is the SHA-256 TestOfflineGoldenDigest computes, recorded at
// 541e806, before the fusion, inference and regroup loops were rewritten, and
// unchanged by the rewrite.
const offlineDigest = "e126b2c359e72af0eded5d3f25024f17b2c7f46845a51dfdea5ce4229d6bc2dc"

// digest hashes integers and the exact bits of floats.
type digest struct{ buf []byte }

func (d *digest) int(v int) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(int64(v))) }

func (d *digest) float(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}

func (d *digest) str(s string) { d.int(len(s)); d.buf = append(d.buf, s...) }

func (d *digest) points(ps []geo.Point) {
	d.int(len(ps))
	for _, p := range ps {
		d.float(p.X)
		d.float(p.Y)
	}
}

func (d *digest) inference(res *crowd.InferenceResult) {
	d.int(res.Iterations)
	if res.Converged {
		d.int(1)
	} else {
		d.int(0)
	}
	for i, s := range res.TaskScores {
		d.float(s)
		d.int(res.Labels[i])
	}
	for _, w := range res.WorkerReliability {
		d.float(w)
	}
}

// TestOfflineGoldenDigest pins every number the crowd-server's offline step
// hands on: the fused map and reliabilities of three stores of the
// mixed_aggregate shape, the whole inference result (deterministic and random
// start) of the bipartite instance the first of them builds, and
// WeightedFusion over 1 000 random segments with tied, zero and negative
// weights. The value is amd64's: arm64 fuses multiply-adds and rounds
// differently.
func TestOfflineGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest was recorded on amd64; this is %s", runtime.GOARCH)
	}
	var d digest

	for seed := uint64(1); seed <= 3; seed++ {
		store := offlineStore(t, seed, mixedShape)
		if _, err := store.Aggregate(); err != nil {
			t.Fatal(err)
		}
		v := store.view.Load()
		for _, seg := range sortedKeys(v.fused) {
			d.str(seg)
			d.int(len(v.fused[seg]))
			for _, r := range v.fused[seg] {
				d.float(r.X)
				d.float(r.Y)
				d.float(r.Weight)
			}
		}
		for _, vehicle := range sortedKeys(v.reliability) {
			d.str(vehicle)
			d.float(v.reliability[vehicle])
		}
	}

	labels := denseInstance(offlineWorld(1, mixedShape))
	d.inference(crowd.Infer(labels, crowd.InferenceOptions{}))
	d.inference(crowd.Infer(labels, crowd.InferenceOptions{RandomInit: true, Seed: 7}))

	r := rng.New(99)
	for seg := 0; seg < 1000; seg++ {
		reports, rel := fusionSegment(r, 1+r.Intn(30))
		opts := crowd.FusionOptions{MergeRadius: 10, MinWeight: 0.5}
		if seg%4 == 0 {
			opts = crowd.FusionOptions{MergeRadius: 5 + 10*r.Float64(), MinReports: r.Intn(3)}
		}
		fused, err := crowd.WeightedFusion(reports, rel, opts)
		if err != nil {
			t.Fatal(err)
		}
		d.points(fused)
	}

	sum := sha256.Sum256(d.buf)
	if got := hex.EncodeToString(sum[:]); got != offlineDigest {
		t.Fatalf("digest %s, want %s: the offline step's answers moved", got, offlineDigest)
	}
}

// denseInstance builds the bipartite instance inferReliability builds from
// the labels: each vehicle's first answer per task, vehicles numbered in order
// of appearance.
func denseInstance(_ []BatchItem, ps []Pattern, ls []Label) *crowd.Labels {
	type key struct {
		task    int
		vehicle string
	}
	seen := map[key]bool{}
	worker := map[string]int{}
	a := &crowd.Assignment{NumTasks: len(ps), TaskWorkers: make([][]int, len(ps))}
	values := make([][]int8, len(ps))
	for _, l := range ls {
		if seen[key{l.TaskID, l.Vehicle}] {
			continue
		}
		seen[key{l.TaskID, l.Vehicle}] = true
		w, ok := worker[l.Vehicle]
		if !ok {
			w = len(worker)
			worker[l.Vehicle] = w
		}
		a.TaskWorkers[l.TaskID] = append(a.TaskWorkers[l.TaskID], w)
		values[l.TaskID] = append(values[l.TaskID], int8(l.Value))
	}
	a.NumWorkers = len(worker)
	return &crowd.Labels{Assignment: a, Values: values}
}

// fusionSegment draws one segment's reports as the store hands them to
// WeightedFusion — eight APs in a 226 m cell, each report within 2 m of them
// or, one time in ten, anywhere — with a reliability per report drawn from a
// few tied values, zero, a negative one and a spread.
func fusionSegment(r *rng.RNG, n int) ([]crowd.VehicleReport, []float64) {
	truth := make([]geo.Point, 8)
	for k := range truth {
		truth[k] = geo.Point{X: 38 + 75*float64(k%3) + r.Uniform(-20, 20), Y: 38 + 75*float64(k/3) + r.Uniform(-20, 20)}
	}
	reports := make([]crowd.VehicleReport, n)
	rel := make([]float64, n)
	for i := range reports {
		spam := r.Float64() < 0.1
		reports[i] = crowd.VehicleReport{Vehicle: i, APs: make([]geo.Point, r.Intn(9))}
		for k := range reports[i].APs {
			p := geo.Point{X: truth[k].X + r.Normal(0, 2), Y: truth[k].Y + r.Normal(0, 2)}
			if spam {
				p = geo.Point{X: r.Uniform(0, 226), Y: r.Uniform(0, 226)}
			}
			reports[i].APs[k] = p
		}
		switch k := r.Intn(6); k {
		case 0, 1:
			rel[i] = []float64{1, 0.05, 0.5}[r.Intn(3)]
		case 2:
			rel[i] = 0
		case 3:
			rel[i] = -0.5
		default:
			rel[i] = r.Float64()
		}
	}
	return reports, rel
}

// TestInferenceOverflowKeepsTheMap: at 100 labels per vehicle the messages of
// iterative inference outgrow float64 long before they converge. They used to
// reach ±Inf, every reliability came out NaN, every fused point with it, and a
// whole-map lookup answered nothing at all.
func TestInferenceOverflowKeepsTheMap(t *testing.T) {
	store := offlineStore(t, 5, offlineShape{segments: 200, reports: 4000, vehicles: 1000, patterns: 500, labelsPerVehicle: 100, spammers: 0.10})
	stats, err := store.AggregateCycle()
	if err != nil {
		t.Fatal(err)
	}
	rel := store.Reliability()
	if len(rel) != 1000 {
		t.Fatalf("%d vehicles scored, want 1000", len(rel))
	}
	for v, w := range rel {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("vehicle %s has reliability %v", v, w)
		}
	}
	all := store.Lookup(geo.Rect{Min: geo.Point{X: -1e9, Y: -1e9}, Max: geo.Point{X: 1e9, Y: 1e9}})
	if len(all) == 0 || len(all) != stats.FusedAPs {
		t.Fatalf("whole-map lookup answered %d of %d fused APs", len(all), stats.FusedAPs)
	}
	for _, r := range all {
		if math.IsNaN(r.X) || math.IsNaN(r.Y) || math.IsInf(r.X, 0) || math.IsInf(r.Y, 0) {
			t.Fatalf("fused point %+v is not finite", r)
		}
	}
}
