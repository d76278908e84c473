package baseline

import (
	"errors"
	"sort"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/radio"
)

// SkyhookOptions tunes the fingerprinting stand-in.
type SkyhookOptions struct {
	// K is the number of strongest scans used per AP (weighted KNN over the
	// war-driving database; default 5).
	K int
	// MinScans drops APs heard fewer than this many times (default 2).
	MinScans int
}

// Skyhook estimates AP positions with the Place-Lab-style war-driving
// pipeline the paper uses as the Skyhook stand-in: scans are ranked per AP
// by RSS, and each AP's position is the rank-weighted centroid of its K
// strongest scan positions. It consumes BSSID-labelled scans.
func Skyhook(ms []radio.Measurement, opts SkyhookOptions) ([]geo.Point, error) {
	k := opts.K
	if k <= 0 {
		k = 5
	}
	minScans := opts.MinScans
	if minScans <= 0 {
		minScans = 2
	}
	byAP := map[int][]radio.Measurement{}
	for _, m := range ms {
		if m.Source < 0 {
			continue
		}
		byAP[m.Source] = append(byAP[m.Source], m)
	}
	var ids []int
	for id, scans := range byAP {
		if len(scans) >= minScans {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		return nil, errors.New("baseline: Skyhook has no AP with enough scans")
	}
	out := make([]geo.Point, 0, len(ids))
	for _, id := range ids {
		scans := byAP[id]
		// Rank scans by RSS (strongest first) — Place Lab's ranking scheme.
		sort.Slice(scans, func(a, b int) bool { return scans[a].RSS > scans[b].RSS })
		top := scans
		if len(top) > k {
			top = top[:k]
		}
		// Rank-order weights: strongest scan weight k, next k−1, ...
		var sx, sy, sw float64
		for rank, s := range top {
			w := float64(len(top) - rank)
			sx += w * s.Pos.X
			sy += w * s.Pos.Y
			sw += w
		}
		out = append(out, geo.Point{X: sx / sw, Y: sy / sw})
	}
	return out, nil
}

// SkyhookCrowd refines Skyhook estimates with naive crowd averaging: reports
// from several vehicles for the same AP id are averaged uniformly (no
// reliability model), which is the paper's characterization of war-driving
// databases whose "server side lacks efficient methods to evaluate the
// accuracy of the information contributed by various mobile users".
func SkyhookCrowd(perVehicle [][]radio.Measurement, opts SkyhookOptions) ([]geo.Point, error) {
	// Union of per-vehicle estimates keyed by AP id.
	type acc struct {
		sum geo.Point
		n   int
	}
	byID := map[int]*acc{}
	for _, ms := range perVehicle {
		ests, err := skyhookByID(ms, opts)
		if err != nil {
			continue
		}
		for id, p := range ests {
			a, ok := byID[id]
			if !ok {
				a = &acc{}
				byID[id] = a
			}
			a.sum.X += p.X
			a.sum.Y += p.Y
			a.n++
		}
	}
	if len(byID) == 0 {
		return nil, errors.New("baseline: SkyhookCrowd has no estimates")
	}
	var ids []int
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]geo.Point, 0, len(ids))
	for _, id := range ids {
		a := byID[id]
		out = append(out, geo.Point{X: a.sum.X / float64(a.n), Y: a.sum.Y / float64(a.n)})
	}
	return out, nil
}

// skyhookByID is Skyhook keyed by AP id rather than flattened.
func skyhookByID(ms []radio.Measurement, opts SkyhookOptions) (map[int]geo.Point, error) {
	pts, err := skyhookPairs(ms, opts)
	if err != nil {
		return nil, err
	}
	return pts, nil
}

func skyhookPairs(ms []radio.Measurement, opts SkyhookOptions) (map[int]geo.Point, error) {
	k := opts.K
	if k <= 0 {
		k = 5
	}
	minScans := opts.MinScans
	if minScans <= 0 {
		minScans = 2
	}
	byAP := map[int][]radio.Measurement{}
	for _, m := range ms {
		if m.Source < 0 {
			continue
		}
		byAP[m.Source] = append(byAP[m.Source], m)
	}
	out := map[int]geo.Point{}
	for id, scans := range byAP {
		if len(scans) < minScans {
			continue
		}
		sort.Slice(scans, func(a, b int) bool { return scans[a].RSS > scans[b].RSS })
		top := scans
		if len(top) > k {
			top = top[:k]
		}
		var sx, sy, sw float64
		for rank, s := range top {
			w := float64(len(top) - rank)
			sx += w * s.Pos.X
			sy += w * s.Pos.Y
			sw += w
		}
		out[id] = geo.Point{X: sx / sw, Y: sy / sw}
	}
	if len(out) == 0 {
		return nil, errors.New("baseline: no AP with enough scans")
	}
	return out, nil
}
