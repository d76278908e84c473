package crowd

import (
	"testing"

	"crowdwifi/internal/eval"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/rng"
)

// segmentReports draws one road segment's reports at the crowd-server's
// scale: eight APs a 226 m cell, each honest report within 2 m of every one
// of them, a spammer's (one in ten) anywhere in the cell, with the reliability
// weights inference gives the two (≈ 1 and 0.05).
func segmentReports(r *rng.RNG, n int) ([]VehicleReport, []float64) {
	truth := make([]geo.Point, 8)
	for k := range truth {
		truth[k] = geo.Point{X: 38 + 75*float64(k%3) + r.Uniform(-20, 20), Y: 38 + 75*float64(k/3) + r.Uniform(-20, 20)}
	}
	reports := make([]VehicleReport, n)
	rel := make([]float64, n)
	for i := range reports {
		spam := r.Float64() < 0.1
		reports[i] = VehicleReport{Vehicle: i, APs: make([]geo.Point, len(truth))}
		for k, ap := range truth {
			p := geo.Point{X: ap.X + r.Normal(0, 2), Y: ap.Y + r.Normal(0, 2)}
			if spam {
				p = geo.Point{X: r.Uniform(0, 226), Y: r.Uniform(0, 226)}
			}
			reports[i].APs[k] = p
		}
		rel[i] = 0.9 + 0.1*r.Float64()
		if spam {
			rel[i] = 0.05
		}
	}
	return reports, rel
}

// denseLabels draws the bipartite instance a crowd-server holds: every worker
// answers perWorker distinct tasks, spread by a stride coprime to the task
// count, right nine times in ten (a spammer, one in ten, at random).
func denseLabels(r *rng.RNG, tasks, workers, perWorker int) *Labels {
	truth := RandomLabelsTruth(tasks, r)
	a := &Assignment{NumTasks: tasks, NumWorkers: workers, TaskWorkers: make([][]int, tasks)}
	values := make([][]int8, tasks)
	for j := 0; j < workers; j++ {
		spam := r.Float64() < 0.1
		for k := 0; k < perWorker; k++ {
			i := (j*perWorker + k*101) % tasks
			v := int8(truth[i])
			if (spam && r.Bernoulli(0.5)) || (!spam && r.Bernoulli(0.1)) {
				v = -v
			}
			a.TaskWorkers[i] = append(a.TaskWorkers[i], j)
			values[i] = append(values[i], v)
		}
	}
	return &Labels{Assignment: a, Values: values}
}

// BenchmarkWeightedFusionSegment fuses one segment: 20 reports of 8 APs, one
// in ten from a spammer — what the crowd-server does 2 500 times a cycle at
// bench/'s mixed_aggregate size.
func BenchmarkWeightedFusionSegment(b *testing.B) {
	r := rng.New(1)
	const pool = 64
	var reports [pool][]VehicleReport
	var rel [pool][]float64
	for k := range reports {
		reports[k], rel[k] = segmentReports(r, 20)
	}
	opts := FusionOptions{MergeRadius: 10, MinWeight: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WeightedFusion(reports[i%pool], rel[i%pool], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInfer runs inference on mixed_aggregate's instance: 2 000 tasks,
// 1 000 vehicles answering 20 each.
func BenchmarkInfer(b *testing.B) {
	labels := denseLabels(rng.New(2), 2000, 1000, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer(labels, InferenceOptions{})
	}
}

// BenchmarkExtensionAggregators compares the three reliability-aware
// aggregators implemented here — KOS message passing (the paper's choice),
// Dawid-Skene EM (a test comparator), and mean-field variational inference
// (the paper's reference [10]) — on one spammer-hammer instance.
func BenchmarkExtensionAggregators(b *testing.B) {
	r := rng.New(6)
	a, err := RegularAssignment(600, 5, 15, r)
	if err != nil {
		b.Fatal(err)
	}
	truth := RandomLabelsTruth(600, r)
	q := SpammerHammer(a.NumWorkers, 0.5, r)
	labels, err := GenerateLabels(a, truth, q, r)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		run  func() []int
	}{
		{"kos", func() []int { return Infer(labels, InferenceOptions{}).Labels }},
		{"em", func() []int { got, _ := emDawidSkene(labels, 20); return got }},
		{"variational", func() []int { got, _ := Variational(labels); return got }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var ber float64
			for i := 0; i < b.N; i++ {
				ber = eval.BitErrorRate(truth, arm.run())
			}
			b.ReportMetric(ber, "bit_err")
		})
	}
}
