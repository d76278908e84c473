package traceio

import (
	"bytes"
	"encoding/csv"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"crowdwifi/internal/cs"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
)

func TestMeasurementRoundTrip(t *testing.T) {
	in := []radio.Measurement{
		{Time: 0, Pos: geo.Point{X: 1.5, Y: -2.25}, RSS: -61.125, Source: 3},
		{Time: 1.5, Pos: geo.Point{X: 0, Y: 0}, RSS: -90, Source: -1},
	}
	var buf bytes.Buffer
	if err := writeMeasurements(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMeasurements(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("record %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestMeasurementRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		in := make([]radio.Measurement, int(n)%40)
		for i := range in {
			in[i] = radio.Measurement{
				Time:   r.Uniform(0, 1e4),
				Pos:    geo.Point{X: r.Normal(0, 100), Y: r.Normal(0, 100)},
				RSS:    r.Uniform(-100, -20),
				Source: r.Intn(20) - 1,
			}
		}
		var buf bytes.Buffer
		if err := writeMeasurements(&buf, in); err != nil {
			return false
		}
		out, err := ReadMeasurements(&buf)
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateRoundTrip(t *testing.T) {
	in := []cs.Estimate{
		{Pos: geo.Point{X: 10.5, Y: 20.25}, Credit: 7},
		{Pos: geo.Point{X: -3, Y: 0}, Credit: 1.5},
	}
	var buf bytes.Buffer
	if err := WriteEstimates(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadEstimates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i].Pos != in[i].Pos || out[i].Credit != in[i].Credit {
			t.Fatalf("record %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReadMeasurementsErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong header": "a,b,c,d,e\n",
		"short header": "time_s,x_m\n",
		"bad float":    "time_s,x_m,y_m,rss_dbm,source\nnope,1,2,3,0\n",
		"bad source":   "time_s,x_m,y_m,rss_dbm,source\n1,1,2,3,zz\n",
		"short row":    "time_s,x_m,y_m,rss_dbm,source\n1,2\n",
	}
	for name, input := range cases {
		if _, err := ReadMeasurements(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadEstimatesErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong header": "a,b,c\n",
		"bad float":    "x_m,y_m,credit\nx,1,2\n",
	}
	for name, input := range cases {
		if _, err := ReadEstimates(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestEmptyTraces(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMeasurements(&buf, nil); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadMeasurements(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("ms = %v", ms)
	}
	buf.Reset()
	if err := WriteEstimates(&buf, nil); err != nil {
		t.Fatal(err)
	}
	es, err := ReadEstimates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 0 {
		t.Fatalf("es = %v", es)
	}
}

// writeMeasurements writes a measurement trace with a header row: the
// format ReadMeasurements parses, as a collector writes it.
func writeMeasurements(w io.Writer, ms []radio.Measurement) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(measurementHeader); err != nil {
		return err
	}
	for _, m := range ms {
		rec := []string{
			formatFloat(m.Time),
			formatFloat(m.Pos.X),
			formatFloat(m.Pos.Y),
			formatFloat(m.RSS),
			strconv.Itoa(m.Source),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
