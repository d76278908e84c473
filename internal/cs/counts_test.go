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
	// ℓ1 solves, after the recovery memo; 953 before the wide ADMM loop
	// iterated in (z, v), whose rounding moves a few supports and with them
	// the groups later refinements form.
	"group solves/drive": 925,
	// Of those, the solves that ran all admmMaxIter iterations without
	// meeting admmTol: the solver's outcome="diverged" series, which there
	// means "stopped at MaxIter", not that the iterate grew; 814 before the
	// (z, v) loop.
	"ℓ1 solves at the iteration cap/drive": 790,
	// ADMM iterations of those solves that made a pass over all 187 grid
	// coordinates (solve.Result.Passes); 339,575 while every iteration did.
	"full ADMM passes/drive": 41636,
	// Candidates refineLocal scored, its start points not counted; 578,178 at
	// 7e09f49, before a call stopped scoring a point twice, 299,586 while
	// Proposition 1 factored each group by SVD (the Gram route moves θ by
	// rounding, and with it a few of refineLocal's start points), and 298,571
	// before the (z, v) loop moved them again.
	"refine scorings/drive": 290538,
	// Likelihood terms refineLocal evaluated, one per reading of the group
	// for each point it scored, its start points included; 2,973,610 while
	// every candidate was scored in full, 1,312,353 with the bound before the
	// (z, v) loop.
	"likelihood terms scored/drive": 1314444,
	// Entries of every sensing matrix built; 1,897,863 (10,149 rows of 187)
	// at 7e09f49, when each group built its own rows.
	"sensing entries/drive": 185130,
	// testing.AllocsPerRun of SelectModel on the drive's samples 60 to 120;
	// 3,468 at 7e09f49, 3,436 with the SVD route, 3,390 while refineLocal's
	// table started at 512 slots and grew on the heap (the memo's map of
	// claimed keys adds 2), and 3,382 while BPDN made 14 allocations a solve
	// instead of 10.
	"allocs/select model, 60 samples": 3242,
	// Bytes the same selection allocates (runtime.MemStats.TotalAlloc);
	// 4,356,464 with the SVD route, which allocated two 24×187 working
	// matrices per group, 2,516,320 while refineLocal's table grew, and
	// 2,270,840 before the (z, v) loop: a solve allocates less, but the
	// selection now solves 46 groups, not 45, and scores 13,486 candidates,
	// not 12,993; 2,291,320 while HypothesisOptions carried the exhaustive
	// search's switch, 8 bytes more in every copy the selection allocates.
	"bytes/select model, 60 samples": 2291048,
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
		"full ADMM passes/drive":        float64(w.passes.Load()),
		"refine scorings/drive":         float64(w.scored.Load()),
		"likelihood terms scored/drive": float64(w.terms.Load()),
		"sensing entries/drive":         float64(w.entries.Load()),
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
			t.Errorf("%s: %.0f, want %.0f", name, v, want)
		}
	}
}
