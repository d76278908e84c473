// Crowdsensing: the full CrowdWiFi middleware loop in one process.
//
// An in-process crowd-server (HTTP over a loopback listener) receives AP
// reports from three crowd-vehicles that drove the UCI campus — two honest,
// one spammer that answers mapping tasks randomly. The server infers each
// vehicle's reliability with iterative message passing, fuses the reports
// with reliability-weighted centroids, and a user-vehicle downloads the
// fused AP lookup results.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sort"

	"crowdwifi"

	"crowdwifi/internal/api"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	// Crowd-server on a loopback listener.
	store := crowdwifi.NewServerStore(12)
	ts := httptest.NewServer(crowdwifi.NewServerHandler(store))
	defer ts.Close()
	fmt.Println("crowd-server at", ts.URL)

	sc := crowdwifi.UCIScenario()
	area := sc.Area
	cfg := crowdwifi.EngineConfig{
		Channel:     sc.Channel,
		Radius:      sc.Radius,
		Lattice:     sc.Lattice,
		Area:        &area,
		WindowSize:  60,
		StepSize:    10,
		MergeRadius: 1.5 * sc.Lattice,
		Select:      crowdwifi.SelectOptions{MaxK: 8},
	}

	// Three crowd-vehicles drive the campus with different seeds; the third
	// is a spammer: it uploads a garbage report and labels tasks randomly.
	const segment = "uci-campus"
	vehicles := []struct {
		id      string
		seed    uint64
		spammer bool
	}{
		{"bus-7", 101, false},
		{"patrol-2", 202, false},
		{"junk-9", 303, true},
	}
	spamRNG := rng.New(999)
	for _, v := range vehicles {
		cv, err := crowdwifi.NewCrowdVehicle(v.id, ts.URL, cfg)
		if err != nil {
			return err
		}
		if v.spammer {
			// The spammer does not sense; it fabricates an AP constellation.
			var junk []api.APReport
			for i := 0; i < 8; i++ {
				junk = append(junk, api.APReport{
					X:      spamRNG.Uniform(0, 304),
					Y:      spamRNG.Uniform(0, 184),
					Credit: 5,
				})
			}
			if err := cv.SubmitLabels(ctx, nil); err != nil {
				return err
			}
			if err := postJunkReport(store, v.id, segment, junk); err != nil {
				return err
			}
			fmt.Printf("%s: uploaded a fabricated report\n", v.id)
			continue
		}
		ms, err := sc.Drive(sim.DriveConfig{
			Trajectory: sim.UCIDrive(),
			NumSamples: 180,
			SNR:        30,
		}, rng.New(v.seed))
		if err != nil {
			return err
		}
		if err := cv.Sense(ctx, ms); err != nil {
			return err
		}
		if err := cv.Report(ctx, segment); err != nil {
			return err
		}
		if _, err := cv.ProposePattern(ctx, segment); err != nil {
			return err
		}
		fmt.Printf("%s: sensed %d readings, reported %d APs\n",
			v.id, len(ms), len(cv.Estimates()))
	}

	// Every vehicle labels the proposed mapping tasks: honest vehicles
	// compare against their own estimates; the spammer answers randomly.
	for _, v := range vehicles {
		cv, err := crowdwifi.NewCrowdVehicle(v.id, ts.URL, cfg)
		if err != nil {
			return err
		}
		tasks, err := cv.PullTasks(ctx, 10)
		if err != nil {
			return err
		}
		if v.spammer {
			var labels []api.Label
			for _, task := range tasks {
				val := 1
				if spamRNG.Bernoulli(0.5) {
					val = -1
				}
				labels = append(labels, api.Label{Vehicle: v.id, TaskID: task.ID, Value: val})
			}
			if len(labels) > 0 {
				if err := cv.SubmitLabels(ctx, labels); err != nil {
					return err
				}
			}
			continue
		}
		// Honest vehicles need their estimates back; re-sense determinstically.
		ms, err := sc.Drive(sim.DriveConfig{
			Trajectory: sim.UCIDrive(),
			NumSamples: 180,
			SNR:        30,
		}, rng.New(v.seed))
		if err != nil {
			return err
		}
		if err := cv.Sense(ctx, ms); err != nil {
			return err
		}
		if _, err := cv.LabelTasks(ctx, tasks, 2*sc.Lattice); err != nil {
			return err
		}
	}

	// Offline crowdsourcing: reliability inference + weighted fusion.
	fusedCount, err := crowdwifi.Aggregate(ctx, ts.URL)
	if err != nil {
		return err
	}
	rel, err := crowdwifi.Reliability(ctx, ts.URL)
	if err != nil {
		return err
	}
	ids := make([]string, 0, len(rel))
	for id := range rel {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Println("\ninferred vehicle reliabilities:")
	for _, id := range ids {
		fmt.Printf("  %-9s %.2f\n", id, rel[id])
	}

	// A user-vehicle downloads the fused lookup results.
	user := crowdwifi.NewUserVehicle(ts.URL)
	aps, err := user.Lookup(ctx, sc.Area)
	if err != nil {
		return err
	}
	fmt.Printf("\nuser-vehicle downloaded %d fused APs (server fused %d):\n", len(aps), fusedCount)
	for _, p := range aps {
		fmt.Printf("  AP at (%6.1f, %6.1f) m\n", p.X, p.Y)
	}
	fmt.Printf("mean matched error vs ground truth: %.2f m over %d true APs\n",
		crowdwifi.MeanMatchedDistance(sc.APs, aps), len(sc.APs))
	return nil
}

// postJunkReport stores the spammer's fabricated report directly.
func postJunkReport(store *crowdwifi.ServerStore, id, segment string, aps []api.APReport) error {
	return store.AddReport(api.Report{Vehicle: id, Segment: segment, APs: aps})
}
