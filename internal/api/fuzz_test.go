package api

import (
	"bytes"
	"net/http"
	"runtime"
	"testing"
)

// Fuzz targets for the three frame decoders, which parse bytes from the
// network. Each holds the decoder to the same three properties: it does not
// panic; what it accepts re-encodes to the bytes it was given (the codec has
// one encoding per value, so a relay may re-encode or forward verbatim); and
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
	} {
		f.Add(seed)
	}
}

func FuzzSplitReportFrames(f *testing.F) {
	seedFrames(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var frames []ReportFrame
		var err error
		decodeBounded(t, len(body), func() { frames, err = SplitReportFrames(body) })
		if err != nil {
			return
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
