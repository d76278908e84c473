package api

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net/http"
	"reflect"
	"testing"

	"crowdwifi/internal/frame"
)

// The exact bytes of one frame of each kind, captured from the codec while it
// lived in internal/server (commit 1d583d2): the first report frame, the
// lookup answer and the status vector of the round-trip tests below.
const (
	goldenReportFrame = "4e00000005f068ca010400726b2d3006007665682d343209007365676d656e742f3702000000000000000000f83f00000000000002c0000000000000e83f0000000000a98f400000000000005640000000000000f03f"
	goldenLookupFrame = "350000008b6c3fa70202000000000000000000254000000000000008c0000000000000024000000000000000000000000000000000fca9f1d24d62503f"
	goldenStatusFrame = "5d0000003241ceac0303000000c90001006100000000a50101006217007365676d656e74206f776e656420656c73657768657265070073686172642d629001000020007265706f7274206e656564732076656869636c6520616e64207365676d656e740000"
)

func wireReportFixture(i int) Report {
	return Report{
		Vehicle: "veh-42",
		Segment: "segment/7",
		APs: []APReport{
			{X: 1.5 + float64(i), Y: -2.25, Credit: 0.75},
			{X: 1013.125, Y: 88, Credit: 1},
		},
	}
}

func TestReportFrameRoundTrip(t *testing.T) {
	var body []byte
	var err error
	keys := []string{"rk-0", "", "rk-2"} // a frame may carry no idempotency key
	for i, k := range keys {
		if body, err = EncodeReportFrame(body, k, wireReportFixture(i)); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := SplitReportFrames(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(keys) {
		t.Fatalf("frames = %d, want %d", len(frames), len(keys))
	}
	off := 0
	for i, f := range frames {
		if f.Key != keys[i] {
			t.Errorf("frame %d key = %q, want %q", i, f.Key, keys[i])
		}
		if !reflect.DeepEqual(f.Report, wireReportFixture(i)) {
			t.Errorf("frame %d report = %+v, want %+v", i, f.Report, wireReportFixture(i))
		}
		// Raw holds the frame's exact bytes so routers can forward it verbatim.
		if got := body[off : off+len(f.Raw)]; string(got) != string(f.Raw) {
			t.Errorf("frame %d Raw is not the original bytes", i)
		}
		off += len(f.Raw)
	}
	if off != len(body) {
		t.Fatalf("Raw slices cover %d bytes, body is %d", off, len(body))
	}
	if got := hex.EncodeToString(frames[0].Raw); got != goldenReportFrame {
		t.Errorf("report frame bytes changed:\n got %s\nwant %s", got, goldenReportFrame)
	}
}

func TestReportFrameRejectsDamage(t *testing.T) {
	body, err := EncodeReportFrame(nil, "k", wireReportFixture(0))
	if err != nil {
		t.Fatal(err)
	}
	// An empty body is zero frames, not damage: the batch route treats it as
	// an empty batch.
	if frames, err := SplitReportFrames(nil); err != nil || len(frames) != 0 {
		t.Fatalf("empty body: frames=%v err=%v, want none and nil", frames, err)
	}
	cases := map[string][]byte{
		"truncated header": body[:4],
		"truncated data":   body[:len(body)-3],
		"trailing garbage": append(append([]byte{}, body...), 0xde, 0xad),
		"flipped bit": func() []byte {
			b := append([]byte{}, body...)
			b[len(b)-1] ^= 0x01 // CRC no longer matches
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := SplitReportFrames(b); !errors.Is(err, ErrWireFrame) {
			t.Errorf("%s: err = %v, want ErrWireFrame", name, err)
		}
	}
}

func TestLookupFrameRoundTrip(t *testing.T) {
	results := []LookupResult{
		{X: 10.5, Y: -3, Weight: 2.25},
		{X: 0, Y: 0, Weight: 0.001},
	}
	got, err := DecodeLookupFrame(EncodeLookupFrame(results))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, results) {
		t.Fatalf("round trip = %+v, want %+v", got, results)
	}
	if got := hex.EncodeToString(EncodeLookupFrame(results)); got != goldenLookupFrame {
		t.Errorf("lookup frame bytes changed:\n got %s\nwant %s", got, goldenLookupFrame)
	}

	empty, err := DecodeLookupFrame(EncodeLookupFrame(nil))
	if err != nil {
		t.Fatal(err)
	}
	if empty == nil || len(empty) != 0 {
		t.Fatalf("empty answer decodes to %#v, want non-nil empty slice", empty)
	}
}

func TestLookupFrameRejectsWrongKind(t *testing.T) {
	// A report frame is a valid frame of the wrong kind: the lookup decoder
	// must refuse it rather than misparse the payload.
	body, err := EncodeReportFrame(nil, "k", wireReportFixture(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLookupFrame(body); !errors.Is(err, ErrWireFrame) {
		t.Fatalf("err = %v, want ErrWireFrame", err)
	}
	// Two concatenated lookup frames are not "a single frame" either.
	double := append(EncodeLookupFrame(nil), EncodeLookupFrame(nil)...)
	if _, err := DecodeLookupFrame(double); !errors.Is(err, ErrWireFrame) {
		t.Fatalf("double frame err = %v, want ErrWireFrame", err)
	}
}

func TestBatchStatusFrameRoundTrip(t *testing.T) {
	statuses := []BatchEntryStatus{
		{Key: "a", Status: http.StatusCreated},
		{Key: "b", Status: http.StatusMisdirectedRequest, Owner: "shard-b", Error: "segment owned elsewhere"},
		{Key: "", Status: http.StatusBadRequest, Error: "report needs vehicle and segment"},
	}
	frame, err := EncodeBatchStatusFrame(statuses)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchStatusFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, statuses) {
		t.Fatalf("round trip = %+v, want %+v", got, statuses)
	}
	if got := hex.EncodeToString(frame); got != goldenStatusFrame {
		t.Errorf("status frame bytes changed:\n got %s\nwant %s", got, goldenStatusFrame)
	}

	empty, err := EncodeBatchStatusFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBatchStatusFrame(empty)
	if err != nil {
		t.Fatal(err)
	}
	if dec == nil || len(dec) != 0 {
		t.Fatalf("empty status vector decodes to %#v, want non-nil empty slice", dec)
	}
}

// hugeCountStatusFrame is a valid 13-byte frame (good CRC) whose whole
// payload is a status count the frame cannot possibly hold.
func hugeCountStatusFrame(n uint32) []byte {
	return frame.Append(nil, wireBatchStatus, binary.LittleEndian.AppendUint32(nil, n))
}

// TestBatchStatusFrameCountIsBounded: the count is untrusted, so it must be
// checked against the payload before it sizes an allocation.
func TestBatchStatusFrameCountIsBounded(t *testing.T) {
	body := hugeCountStatusFrame(20_000_000)
	if len(body) != 13 {
		t.Fatalf("body is %d bytes, want 13", len(body))
	}
	var err error
	decodeBounded(t, len(body), func() { _, err = DecodeBatchStatusFrame(body) }) // < 1 MiB
	if !errors.Is(err, ErrWireFrame) {
		t.Fatalf("err = %v, want ErrWireFrame", err)
	}
}
