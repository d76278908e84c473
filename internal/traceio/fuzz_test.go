package traceio

// The CSV readers parse whatever a collector wrote. They are held to the
// decoders' three properties: no panic, allocation proportional to the
// input, and an accepted input is a fixed point of write ∘ read, bit for bit,
// NaN and −0 included.

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"crowdwifi/internal/cs"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/radio"
)

// A read may allocate this much per input byte, plus the slack: the CSV
// reader's record and its strings, the parsed values and the doubling of the
// result slice.
const (
	fuzzAllocPerByte = 64
	fuzzAllocSlack   = 256 << 10
)

// readBounded runs read and fails if it allocated more than n input bytes
// may.
func readBounded(t *testing.T, n int, read func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(fuzzAllocPerByte*n+fuzzAllocSlack) {
		t.Fatalf("reading %d bytes allocated %d", n, grew)
	}
}

// sameBits reports whether two float lists hold the same bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func measurementBits(ms []radio.Measurement) ([]float64, []int) {
	var fs []float64
	var src []int
	for _, m := range ms {
		fs = append(fs, m.Time, m.Pos.X, m.Pos.Y, m.RSS)
		src = append(src, m.Source)
	}
	return fs, src
}

func FuzzReadMeasurements(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteMeasurements(&seed, []radio.Measurement{
		{Time: 0, Pos: geo.Point{X: 1.5, Y: -2.25}, RSS: -61.125, Source: 3},
		{Time: math.Copysign(0, -1), Pos: geo.Point{X: math.NaN(), Y: math.Inf(1)}, RSS: math.Inf(-1), Source: -1},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("time_s,x_m,y_m,rss_dbm,source\n0x1p-2,1e3,+Inf,nan,+7\n"))
	f.Add([]byte("time_s,x_m,y_m,rss_dbm,source\n1,2,3\n"))
	f.Add([]byte(`"time_s","x_m","y_m","rss_dbm","source"` + "\r\n1,2,3,4,5\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms []radio.Measurement
		var err error
		readBounded(t, len(data), func() { ms, err = ReadMeasurements(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteMeasurements(&first, ms); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		again, err := ReadMeasurements(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not read: %v", err)
		}
		f1, s1 := measurementBits(ms)
		f2, s2 := measurementBits(again)
		if !sameBits(f1, f2) || !slices.Equal(s1, s2) {
			t.Fatalf("read(write(x)) is not x:\n%v %v\n%v %v", f1, s1, f2, s2)
		}
		var second bytes.Buffer
		if err := WriteMeasurements(&second, again); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write(read(x)) is not a fixed point (err %v)", err)
		}
	})
}

func FuzzReadEstimates(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteEstimates(&seed, []cs.Estimate{
		{Pos: geo.Point{X: 10, Y: -5.5}, Credit: 4},
		{Pos: geo.Point{X: math.Copysign(0, -1), Y: math.NaN()}, Credit: math.Inf(1)},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("x_m,y_m,credit\n1e308,-1e-320,0x1.8p1\n"))
	f.Add([]byte("x_m,y_m,credit\n1,2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var es []cs.Estimate
		var err error
		readBounded(t, len(data), func() { es, err = ReadEstimates(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteEstimates(&first, es); err != nil {
			t.Fatalf("accepted estimates do not write: %v", err)
		}
		again, err := ReadEstimates(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written estimates do not read: %v", err)
		}
		if !sameBits(estimateBits(es), estimateBits(again)) {
			t.Fatalf("read(write(x)) is not x:\n%v\n%v", es, again)
		}
		var second bytes.Buffer
		if err := WriteEstimates(&second, again); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write(read(x)) is not a fixed point (err %v)", err)
		}
	})
}

func estimateBits(es []cs.Estimate) []float64 {
	var fs []float64
	for _, e := range es {
		fs = append(fs, e.Pos.X, e.Pos.Y, e.Credit)
	}
	return fs
}
