package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// fusionFixture loads a store with nSeg segments of clustered vehicle
// reports plus labels so reliability inference produces non-trivial weights.
func fusionFixture(tb testing.TB, nSeg, nVeh int) *Store {
	tb.Helper()
	store := NewStore(10)
	rng := rand.New(rand.NewSource(17))
	for s := 0; s < nSeg; s++ {
		seg := fmt.Sprintf("seg-%03d", s)
		baseX, baseY := float64(100*s), 50.0
		for v := 0; v < nVeh; v++ {
			veh := fmt.Sprintf("veh-%d", v)
			aps := []APReport{
				{X: baseX + rng.Float64()*4, Y: baseY + rng.Float64()*4, Credit: 3},
				{X: baseX + 40 + rng.Float64()*4, Y: baseY + 20 + rng.Float64()*4, Credit: 2},
			}
			if err := store.AddReport(Report{Vehicle: veh, Segment: seg, APs: aps}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	addPattern(tb, store, "seg-000", []APReport{{X: 0, Y: 50, Credit: 3}})
	for v := 0; v < nVeh; v++ {
		val := 1
		if v == nVeh-1 {
			val = -1 // one dissenter keeps inference off the trivial fixed point
		}
		if err := store.AddLabels([]Label{{Vehicle: fmt.Sprintf("veh-%d", v), TaskID: 0, Value: val}}); err != nil {
			tb.Fatal(err)
		}
	}
	return store
}

// setWorkers pins the worker count, GOMAXPROCS, for the rest of the test (no
// test in the repository runs in parallel with another).
func setWorkers(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestAggregateParallelBitIdentical is the determinism property test for
// parallel per-segment fusion: segments are fused by independent workers and
// applied in sorted-key order, so the fused map and reliability scores must
// match a serial aggregation bit-for-bit at any worker count.
func TestAggregateParallelBitIdentical(t *testing.T) {
	serial := fusionFixture(t, 12, 6)
	setWorkers(t, 1)
	if _, err := serial.Aggregate(); err != nil {
		t.Fatal(err)
	}

	parallel := fusionFixture(t, 12, 6)
	setWorkers(t, 4)
	if _, err := parallel.Aggregate(); err != nil {
		t.Fatal(err)
	}

	sf, pf := serial.view.Load().fused, parallel.view.Load().fused
	if len(sf) != len(pf) {
		t.Fatalf("segment count %d != %d", len(sf), len(pf))
	}
	for seg, want := range sf {
		got, ok := pf[seg]
		if !ok {
			t.Fatalf("segment %s missing from parallel result", seg)
		}
		if len(got) != len(want) {
			t.Fatalf("segment %s: %d fused APs != %d", seg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("segment %s AP %d: %+v != %+v", seg, i, got[i], want[i])
			}
		}
	}
	sr, pr := serial.Reliability(), parallel.Reliability()
	if len(sr) != len(pr) {
		t.Fatalf("reliability count %d != %d", len(sr), len(pr))
	}
	for v, want := range sr {
		if pr[v] != want {
			t.Fatalf("vehicle %s reliability %v != %v", v, pr[v], want)
		}
	}
}

// benchmarkAggregate runs one cycle over a store of bench/'s mixed_aggregate
// preload: 50 k reports, 2 000 patterns and 20 k labels.
func benchmarkAggregate(b *testing.B, workers int) {
	store := offlineStore(b, 1, mixedShape)
	setWorkers(b, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Aggregate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateSerial(b *testing.B)    { benchmarkAggregate(b, 1) }
func BenchmarkAggregateParallel4(b *testing.B) { benchmarkAggregate(b, 4) }
