package main

import (
	"fmt"
	"math"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/server"
)

// Sub-stream labels: every generator draws from rng.New(seed).Split(label),
// so adding a consumer never shifts the inputs of another.
const (
	streamWorld uint64 = iota + 1
	streamPreload
	streamLaneA
	streamLaneB
	streamLabels
	streamDriveA
	streamCheck
	streamDriveB
)

const (
	apsPerSegment = 8
	// cellSide spaces segments so a 400 m lookup window holds ~25 fused APs:
	// 8 APs per 226 m cell is 25 per 400 m × 400 m.
	cellSide     = 226.0
	lookupWindow = 400.0
	// reportNoise keeps a vehicle's estimate of one AP well inside the
	// server's 10 m merge radius, and the 35 m minimum AP spacing keeps two
	// APs out of it, so every segment fuses to exactly its 8 APs.
	reportNoise = 2.0
)

// world is the static map a workload's reports and lookups are drawn from:
// segments on a square grid of cells, eight true APs per segment.
type world struct {
	segments int
	vehicles int
	cols     int
	aps      [][]geo.Point
	// spammer marks the vehicles whose reports and labels are noise.
	spammer []bool
}

func newWorld(seed uint64, segments, vehicles int, spammerShare float64) *world {
	r := rng.New(seed).Split(streamWorld)
	w := &world{
		segments: segments,
		vehicles: vehicles,
		cols:     int(math.Ceil(math.Sqrt(float64(segments)))),
		aps:      make([][]geo.Point, segments),
		spammer:  make([]bool, vehicles),
	}
	for s := range w.aps {
		ox, oy := w.origin(s)
		// Eight of the nine points of a 75 m sub-lattice, each jittered ±20 m.
		skip := r.Intn(9)
		for k := 0; k < 9; k++ {
			if k == skip {
				continue
			}
			w.aps[s] = append(w.aps[s], geo.Point{
				X: ox + 38 + 75*float64(k%3) + r.Uniform(-20, 20),
				Y: oy + 38 + 75*float64(k/3) + r.Uniform(-20, 20),
			})
		}
	}
	for v := range w.spammer {
		w.spammer[v] = r.Float64() < spammerShare
	}
	return w
}

func (w *world) origin(segment int) (x, y float64) {
	return cellSide * float64(segment%w.cols), cellSide * float64(segment/w.cols)
}

// side is the edge of the square that contains every segment.
func (w *world) side() float64 { return cellSide * float64(w.cols) }

func segmentName(s int) string { return fmt.Sprintf("seg-%05d", s) }
func vehicleName(v int) string { return fmt.Sprintf("veh-%04d", v) }

// report draws one vehicle's upload for a random segment.
func (w *world) report(r *rng.RNG) server.Report {
	s, v := r.Intn(w.segments), r.Intn(w.vehicles)
	rep := server.Report{
		Vehicle: vehicleName(v),
		Segment: segmentName(s),
		APs:     make([]server.APReport, apsPerSegment),
	}
	ox, oy := w.origin(s)
	for i, ap := range w.aps[s] {
		p := geo.Point{X: ap.X + r.Normal(0, reportNoise), Y: ap.Y + r.Normal(0, reportNoise)}
		if w.spammer[v] {
			p = geo.Point{X: ox + r.Uniform(0, cellSide), Y: oy + r.Uniform(0, cellSide)}
		}
		rep.APs[i] = server.APReport{X: p.X, Y: p.Y, Credit: float64(2 + r.Intn(8))}
	}
	return rep
}

// lookupRect draws one user-vehicle query: a 400 m window somewhere on the map.
func (w *world) lookupRect(r *rng.RNG) geo.Rect {
	x := r.Uniform(0, w.side()-lookupWindow)
	y := r.Uniform(0, w.side()-lookupWindow)
	return geo.Rect{Min: geo.Point{X: x, Y: y}, Max: geo.Point{X: x + lookupWindow, Y: y + lookupWindow}}
}

// wholeMap covers every AP a report can carry.
func (w *world) wholeMap() geo.Rect {
	return geo.Rect{Min: geo.Point{X: -100, Y: -100}, Max: geo.Point{X: w.side() + 100, Y: w.side() + 100}}
}

// patternsAndLabels draws the mapping tasks and answers that give crowd.Infer
// work to do: each pattern is a segment's true constellation (truth +1) or a
// shifted copy (truth −1); every vehicle answers labelsPerVehicle distinct
// tasks, honest ones right nine times in ten, spammers at random.
func (w *world) patternsAndLabels(seed uint64, patterns, labelsPerVehicle int) ([]server.Pattern, []server.Label) {
	r := rng.New(seed).Split(streamLabels)
	ps := make([]server.Pattern, patterns)
	truth := make([]int, patterns)
	for i := range ps {
		s := r.Intn(w.segments)
		truth[i] = 1
		shift := 0.0
		if r.Bernoulli(0.5) {
			truth[i], shift = -1, 30
		}
		aps := make([]server.APReport, apsPerSegment)
		for k, ap := range w.aps[s] {
			aps[k] = server.APReport{X: ap.X + shift, Y: ap.Y + shift, Credit: 1}
		}
		ps[i] = server.Pattern{ID: i, Segment: segmentName(s), APs: aps}
	}
	// 101 is coprime to any pattern count used here, so one vehicle's tasks
	// are distinct.
	var ls []server.Label
	for v := 0; v < w.vehicles; v++ {
		for k := 0; k < labelsPerVehicle; k++ {
			task := (v*labelsPerVehicle + k*101) % patterns
			value := truth[task]
			switch {
			case w.spammer[v]:
				value = 1 - 2*r.Intn(2)
			case r.Bernoulli(0.1):
				value = -value
			}
			ls = append(ls, server.Label{Vehicle: vehicleName(v), TaskID: task, Value: value})
		}
	}
	return ps, ls
}
