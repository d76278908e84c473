package api

import (
	"bytes"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"testing"

	"crowdwifi/internal/geo"
)

// Fuzz targets for the three frame decoders and the two header/query parsers,
// which parse bytes from the network. Each holds its parser to the same three
// properties: it does not panic; what it accepts re-encodes to what it was
// given (the codec has one encoding per value, so a relay may re-encode or
// forward verbatim; an accepted lookup rect survives LookupQuery → parse); and
// it allocates in proportion to its input, not to a count the input claims.

// allocBound is the heap a decoder may use per input byte, plus slack for
// what the fuzzing engine's own goroutines allocate meanwhile. The densest
// legal input is a status vector of empty strings: 8 payload bytes become a
// 56-byte BatchEntryStatus.
const (
	allocPerByte = 32
	allocSlack   = 256 << 10
)

// decodeBounded runs decode and fails the test if it allocated beyond the
// bound for an input of n bytes.
func decodeBounded(t *testing.T, n int, decode func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(allocPerByte*n+allocSlack) {
		t.Fatalf("decoding %d bytes allocated %d", n, grew)
	}
}

func seedFrames(f *testing.F) {
	var reports []byte
	for i, k := range []string{"rk-0", "", "rk-2"} {
		reports, _ = EncodeReportFrame(reports, k, wireReportFixture(i))
	}
	statuses, _ := EncodeBatchStatusFrame([]BatchEntryStatus{
		{Key: "a", Status: http.StatusCreated},
		{Key: "b", Status: http.StatusMisdirectedRequest, Owner: "shard-b", Error: "segment owned elsewhere"},
		{Key: "", Status: http.StatusBadRequest, Error: "report needs vehicle and segment"},
	})
	emptyStatuses, _ := EncodeBatchStatusFrame(nil)
	// The codec carries IEEE-754 bits and is not the layer that judges them:
	// a NaN or an infinity frames, splits and re-encodes bit for bit (the
	// store refuses it with a 400).
	nonFinite, _ := EncodeReportFrame(nil, "nf", Report{Vehicle: "v", Segment: "s", APs: []APReport{
		{X: math.NaN(), Y: 1, Credit: 1}, {X: 1, Y: math.Inf(1), Credit: 1}, {X: 1, Y: 1, Credit: math.Inf(-1)}}})
	for _, seed := range [][]byte{
		nil,
		reports,
		reports[:len(reports)-3],
		EncodeLookupFrame([]LookupResult{{X: 10.5, Y: -3, Weight: 2.25}, {X: 0, Y: 0, Weight: 0.001}}),
		EncodeLookupFrame(nil),
		statuses,
		emptyStatuses,
		hugeCountStatusFrame(20_000_000),
		hugeCountStatusFrame(0x7FFFFFFF),
		nonFinite,
	} {
		f.Add(seed)
	}
}

// FuzzSplitReportFrames also holds ScanReportFrames, the relay's scan, to
// the full decode: both accept a body or both reject it, and on accepting
// they name the same keys, segments and frame bytes.
func FuzzSplitReportFrames(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var frames, scanned []ReportFrame
		var err, scanErr error
		decodeBounded(t, len(body), func() { frames, err = SplitReportFrames(body) })
		decodeBounded(t, len(body), func() {
			scanErr = ScanReportFrames(body, func(key, segment, raw []byte) {
				scanned = append(scanned, ReportFrame{Key: string(key), Report: Report{Segment: string(segment)}, Raw: raw})
			})
		})
		if (err == nil) != (scanErr == nil) {
			t.Fatalf("SplitReportFrames: %v; ScanReportFrames: %v", err, scanErr)
		}
		if err != nil {
			return
		}
		if len(scanned) != len(frames) {
			t.Fatalf("scan found %d frames, split %d", len(scanned), len(frames))
		}
		for i, fr := range frames {
			sc := scanned[i]
			if sc.Key != fr.Key || sc.Report.Segment != fr.Report.Segment || !bytes.Equal(sc.Raw, fr.Raw) {
				t.Fatalf("frame %d: scan (%q, %q, %x), split (%q, %q, %x)",
					i, sc.Key, sc.Report.Segment, sc.Raw, fr.Key, fr.Report.Segment, fr.Raw)
			}
		}
		var raw, again []byte
		for _, fr := range frames {
			raw = append(raw, fr.Raw...)
			if again, err = EncodeReportFrame(again, fr.Key, fr.Report); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
		}
		if !bytes.Equal(raw, body) {
			t.Fatalf("Raw slices concatenate to %x, body is %x", raw, body)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("re-encoded %x, body is %x", again, body)
		}
	})
}

func FuzzDecodeLookupFrame(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var results []LookupResult
		var err error
		decodeBounded(t, len(body), func() { results, err = DecodeLookupFrame(body) })
		if err != nil {
			return
		}
		if again := EncodeLookupFrame(results); !bytes.Equal(again, body) {
			t.Fatalf("re-encoded %x, body is %x", again, body)
		}
	})
}

func FuzzDecodeBatchStatusFrame(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var statuses []BatchEntryStatus
		var err error
		decodeBounded(t, len(body), func() { statuses, err = DecodeBatchStatusFrame(body) })
		if err != nil {
			return
		}
		again, err := EncodeBatchStatusFrame(statuses)
		if err != nil {
			t.Fatalf("decoded vector does not re-encode: %v", err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("re-encoded %x, body is %x", again, body)
		}
	})
}

func FuzzRetryAfter(f *testing.F) {
	f.Add("40", "1")
	f.Add("", "3")
	f.Add("soon", "Wed, 21 Oct 2015 07:28:00 GMT")
	f.Add("9300000000000", "") // × time.Millisecond overflows int64
	f.Add("", "9223372037")    // × time.Second overflows int64
	f.Fuzz(func(t *testing.T, ms, secs string) {
		h := http.Header{RetryAfterMsHeader: {ms}, "Retry-After": {secs}}
		decodeBounded(t, len(ms)+len(secs), func() {
			if d := RetryAfter(h); d < 0 || d > MaxRetryAfter {
				t.Fatalf("RetryAfter(ms=%q, secs=%q) = %v, outside [0, %v]", ms, secs, d, MaxRetryAfter)
			}
		})
	})
}

func FuzzParseLookupQuery(f *testing.F) {
	f.Add("xmin=0&ymin=0&xmax=100&ymax=100")
	f.Add("xmin=-Inf&ymin=-Inf&xmax=%2BInf&ymax=%2BInf")
	f.Add("xmin=NaN&ymin=0&xmax=1&ymax=NaN") // passes a > comparison, matches nothing
	f.Add("xmin=0&ymin=0&xmax=1e+06&ymax=1") // a bare + is a space
	f.Add("xmin=0&ymin=0&xmax=1e%2B06&ymax=1")
	f.Add("xmin=2&ymin=2&xmax=1&ymax=1") // swapped corners
	f.Fuzz(func(t *testing.T, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		var rect, again geo.Rect
		decodeBounded(t, len(query), func() { rect, err = ParseLookupQuery(q) })
		if err != nil {
			return
		}
		if !(rect.Min.X <= rect.Max.X && rect.Min.Y <= rect.Max.Y) {
			t.Fatalf("%q accepted as %+v: Min must not exceed Max", query, rect)
		}
		if q, err = url.ParseQuery(LookupQuery(rect)); err == nil {
			again, err = ParseLookupQuery(q)
		}
		if err != nil || again != rect {
			t.Fatalf("%q: %+v re-encodes to %+v (err %v)", query, rect, again, err)
		}
	})
}
