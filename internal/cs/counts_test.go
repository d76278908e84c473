package cs

// The vehicle's exact counts: what one seeded drive costs in group solves,
// likelihood scorings and sensing-matrix entries, and what one full-window
// model selection allocates. They are not timings, so a noisy box cannot blur
// them. A change that moves one edits the literal here, and its before and
// after is a reviewed diff.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"crowdwifi/internal/obs"
	"crowdwifi/internal/solve"
)

// wantCounts is one row per count, at one worker on uciDrive(1): the whole
// drive is its 180 samples through uciEngine and the Flush, without the
// reality check.
var wantCounts = map[string]float64{
	// ℓ1 solves, after the recovery memo.
	"group solves/drive": 953,
	// Of those, the solves that ran all admmMaxIter iterations without
	// meeting admmTol: the solver's outcome="diverged" series, which there
	// means "stopped at MaxIter", not that the iterate grew.
	"ℓ1 solves at the iteration cap/drive": 814,
	// Candidates refineLocal scored, its start points not counted; 578,178 at
	// 7e09f49, before a call stopped scoring a point twice, and 299,586 while
	// Proposition 1 factored each group by SVD: the Gram route moves θ by
	// rounding, and with it a few of refineLocal's start points.
	"refine scorings/drive": 298571,
	// Entries of every sensing matrix built; 1,897,863 (10,149 rows of 187)
	// at 7e09f49, when each group built its own rows.
	"sensing entries/drive": 185130,
	// testing.AllocsPerRun of SelectModel on the drive's samples 60 to 120;
	// 3,468 at 7e09f49, 3,436 with the SVD route, and 3,390 while
	// refineLocal's table started at 512 slots and grew on the heap (the memo's
	// map of claimed keys adds 2).
	"allocs/select model, 60 samples": 3382,
	// Bytes the same selection allocates (runtime.MemStats.TotalAlloc);
	// 4,356,464 with the SVD route, which allocated two 24×187 working
	// matrices per group, and 2,516,320 while refineLocal's table grew.
	"bytes/select model, 60 samples": 2270840,
}

func TestCounts(t *testing.T) {
	setWorkers(t, 1)
	sc, g, ms := uciDrive(t, 1)
	reg := obs.NewRegistry()
	sel := SelectOptions{MaxK: uciMaxK}
	sel.Hypothesis.Recovery.Metrics = solve.NewMetrics(reg)
	e := uciEngine(t, sc, sel)

	var w workTally
	tally = &w
	t.Cleanup(func() { tally = nil })
	if _, err := e.AddBatch(ms); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	tally = nil
	got := map[string]float64{
		"group solves/drive": bpdnRuns(reg),
		"ℓ1 solves at the iteration cap/drive": reg.SumCounters("crowdwifi_solver_runs_total", func(l map[string]string) bool {
			return l["solver"] == "bpdn" && l["outcome"] == "diverged"
		}),
		"refine scorings/drive": float64(w.scored.Load()),
		"sensing entries/drive": float64(w.entries.Load()),
	}

	if !raceEnabled {
		// A collection during the run adds 2 to 4 allocations of the
		// runtime's own, so none runs: the selection's warm-up and two
		// counted runs allocate ≈ 7.5 MB.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		window := ms[60:120]
		sel := func() {
			if _, err := SelectModel(g, sc.Channel, window, SelectOptions{MaxK: uciMaxK}); err != nil {
				t.Fatal(err)
			}
		}
		got["allocs/select model, 60 samples"] = testing.AllocsPerRun(1, sel)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sel()
		runtime.ReadMemStats(&after)
		got["bytes/select model, 60 samples"] = float64(after.TotalAlloc - before.TotalAlloc)
	}

	for name, want := range wantCounts {
		v, ok := got[name]
		if !ok {
			continue // an allocation row under -race
		}
		if v != want {
			t.Errorf("%s: %v, want %v", name, v, want)
		}
	}
}
