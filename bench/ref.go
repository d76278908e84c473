package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strconv"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/server"
)

// refLookup is the brute-force model of GET /v1/lookup: keep the fused APs
// inside the rectangle (edges included) and order them by X, then Y, then
// descending weight — the order server.Store.Lookup documents. It works from
// one whole-map answer, so it shares no code with the scan it checks.
func refLookup(all []server.LookupResult, area geo.Rect) []server.LookupResult {
	out := []server.LookupResult{}
	for _, r := range all {
		if r.X >= area.Min.X && r.X <= area.Max.X && r.Y >= area.Min.Y && r.Y <= area.Max.Y {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Weight > b.Weight
	})
	return out
}

// refLookupBody is the byte-exact JSON body the server must answer with.
func refLookupBody(all []server.LookupResult, area geo.Rect) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(refLookup(all, area))
	return buf.Bytes()
}

// lookupQuery renders a rectangle as /v1/lookup's query string; the shortest
// round-trip float form keeps the server's parsed rectangle bit-identical.
func lookupQuery(area geo.Rect) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	q := url.Values{}
	q.Set("xmin", f(area.Min.X))
	q.Set("ymin", f(area.Min.Y))
	q.Set("xmax", f(area.Max.X))
	q.Set("ymax", f(area.Max.Y))
	return q.Encode()
}

// checkLookups compares sampled answers with the model, byte for byte.
// fetch returns the body the system under test gives for a rectangle.
func checkLookups(all []server.LookupResult, areas []geo.Rect, fetch func(geo.Rect) ([]byte, error)) error {
	for i, area := range areas {
		got, err := fetch(area)
		if err != nil {
			return fmt.Errorf("lookup %d: %w", i, err)
		}
		if want := refLookupBody(all, area); !bytes.Equal(got, want) {
			return fmt.Errorf("lookup %d (%s) differs from the reference: got %d bytes, want %d",
				i, lookupQuery(area), len(got), len(want))
		}
	}
	return nil
}
