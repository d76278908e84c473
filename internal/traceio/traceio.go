// Package traceio persists RSS measurement traces and AP estimates as CSV,
// the interchange format between collection drives, the lookup pipeline, and
// offline analysis. The format is deliberately plain so traces can be
// produced by real collectors (a wardriving app, a GPS-tagged scan log) and
// replayed through the CrowdWiFi engine.
//
// Measurement CSV columns: time_s, x_m, y_m, rss_dbm, source (source is the
// AP id for labelled scans, -1 when unknown).
//
// Estimate CSV columns: x_m, y_m, credit.
package traceio

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"crowdwifi/internal/cs"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/radio"
)

// measurementHeader is the canonical measurement CSV header.
var measurementHeader = []string{"time_s", "x_m", "y_m", "rss_dbm", "source"}

// estimateHeader is the canonical estimate CSV header.
var estimateHeader = []string{"x_m", "y_m", "credit"}

// ReadMeasurements parses a measurement trace. The header row is validated;
// rows must be complete and numeric.
func ReadMeasurements(r io.Reader) ([]radio.Measurement, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(measurementHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("traceio: read header: %w", err)
	}
	if err := checkHeader(header, measurementHeader); err != nil {
		return nil, err
	}
	var out []radio.Measurement
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("traceio: line %d: %w", line, err)
		}
		vals, err := parseFloats(rec[:4])
		if err != nil {
			return nil, fmt.Errorf("traceio: line %d: %w", line, err)
		}
		src, err := strconv.Atoi(rec[4])
		if err != nil {
			return nil, fmt.Errorf("traceio: line %d: source: %w", line, err)
		}
		out = append(out, radio.Measurement{
			Time:   vals[0],
			Pos:    geo.Point{X: vals[1], Y: vals[2]},
			RSS:    vals[3],
			Source: src,
		})
	}
}

// WriteEstimates writes consolidated AP estimates with a header row.
func WriteEstimates(w io.Writer, ests []cs.Estimate) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(estimateHeader); err != nil {
		return err
	}
	for _, e := range ests {
		rec := []string{
			formatFloat(e.Pos.X),
			formatFloat(e.Pos.Y),
			formatFloat(e.Credit),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadEstimates parses an estimate CSV.
func ReadEstimates(r io.Reader) ([]cs.Estimate, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(estimateHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("traceio: read header: %w", err)
	}
	if err := checkHeader(header, estimateHeader); err != nil {
		return nil, err
	}
	var out []cs.Estimate
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("traceio: line %d: %w", line, err)
		}
		vals, err := parseFloats(rec)
		if err != nil {
			return nil, fmt.Errorf("traceio: line %d: %w", line, err)
		}
		out = append(out, cs.Estimate{
			Pos:    geo.Point{X: vals[0], Y: vals[1]},
			Credit: vals[2],
		})
	}
}

func checkHeader(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("traceio: header has %d fields, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("traceio: header field %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

func parseFloats(rec []string) ([]float64, error) {
	out := make([]float64, len(rec))
	for i, s := range rec {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("field %d (%q): %w", i, s, err)
		}
		out[i] = v
	}
	return out, nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
