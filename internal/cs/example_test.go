package cs_test

import (
	"context"
	"fmt"

	"crowdwifi/internal/cs"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/radio"
)

// ExampleBuildPhi reconstructs the Fig. 3 setting of the paper: a vehicular
// area divided into a discrete grid, with drive-by RSS measurements taken at
// reference points over the grid. Φ selects one grid point per reference
// point; Ψ holds the mean RSS between every pair of grid points.
func ExampleBuildPhi() {
	ch := radio.UCIChannel()
	ch.ShadowSigma = 0
	// An 8×8 grid of N = 64 points, as in Fig. 3.
	g, err := grid.FromRect(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 70, Y: 70}), 10)
	if err != nil {
		fmt.Println(err)
		return
	}
	// M = 5 reference points.
	rps := []radio.Measurement{
		{Pos: geo.Point{X: 10, Y: 0}},
		{Pos: geo.Point{X: 30, Y: 20}},
		{Pos: geo.Point{X: 50, Y: 30}},
		{Pos: geo.Point{X: 20, Y: 50}},
		{Pos: geo.Point{X: 60, Y: 60}},
	}
	phi := BuildPhiFor(g, rps)
	psi := cs.BuildPsi(g, ch)
	rows, cols := phi.Dims()
	prows, pcols := psi.Dims()
	fmt.Printf("grid N = %d\n", g.N())
	fmt.Printf("Phi is %dx%d, one 1 per row\n", rows, cols)
	fmt.Printf("Psi is %dx%d, symmetric\n", prows, pcols)
	// Output:
	// grid N = 64
	// Phi is 5x64, one 1 per row
	// Psi is 64x64, symmetric
}

// BuildPhiFor adapts the example to the package API.
func BuildPhiFor(g *grid.Grid, rps []radio.Measurement) interface{ Dims() (int, int) } {
	return cs.BuildPhi(g, rps)
}

// ExampleRecoverTheta shows a single noiseless recovery: one AP on a grid
// point, five readings, and the ℓ1 program finding the right cell.
func ExampleRecoverTheta() {
	ch := radio.UCIChannel()
	ch.ShadowSigma = 0
	g, err := grid.FromRect(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 70, Y: 70}), 10)
	if err != nil {
		fmt.Println(err)
		return
	}
	ap := g.Point(27) // the AP sits exactly on grid point 27
	rps := []radio.Measurement{
		{Pos: geo.Point{X: 5, Y: 12}},
		{Pos: geo.Point{X: 42, Y: 8}},
		{Pos: geo.Point{X: 61, Y: 33}},
		{Pos: geo.Point{X: 18, Y: 55}},
		{Pos: geo.Point{X: 33, Y: 37}},
	}
	a := cs.BuildSensingMatrix(g, ch, rps)
	y := make([]float64, len(rps))
	for i, m := range rps {
		y[i] = ch.MeanRSS(m.Pos.Dist(ap))
	}
	theta, err := cs.RecoverTheta(context.Background(), a, y, cs.RecoveryOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	best := 0
	for n, v := range theta {
		if v > theta[best] {
			best = n
		}
	}
	fmt.Printf("dominant coefficient at grid point %d (truth: 27)\n", best)
	// Output:
	// dominant coefficient at grid point 27 (truth: 27)
}
