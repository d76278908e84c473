package frame

import (
	"bytes"
	"testing"
)

// The envelope is the shared substrate for both the on-disk log and the HTTP
// wire codec, so its contract gets direct coverage here in addition to the
// recovery tests that exercise it through the log.

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-delta")}
	for i, p := range payloads {
		buf = Append(buf, byte(i+1), p)
	}
	if got, want := int64(len(buf)), Size(5)+Size(0)+Size(11); got != want {
		t.Fatalf("encoded size = %d, want %d", got, want)
	}
	var kinds []byte
	var datas [][]byte
	valid, n, err := Walk(buf, func(i int, kind byte, data []byte) error {
		kinds = append(kinds, kind)
		datas = append(datas, append([]byte(nil), data...))
		return nil
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if valid != int64(len(buf)) || n != len(payloads) {
		t.Fatalf("valid=%d n=%d, want %d frames over %d bytes", valid, n, len(payloads), len(buf))
	}
	for i, p := range payloads {
		if kinds[i] != byte(i+1) || !bytes.Equal(datas[i], p) {
			t.Fatalf("frame %d: kind=%d data=%q, want kind=%d data=%q", i, kinds[i], datas[i], i+1, p)
		}
	}
}

func TestWalkFramesStopsAtDamage(t *testing.T) {
	buf := Append(nil, 1, []byte("intact"))
	intact := int64(len(buf))
	buf = Append(buf, 2, []byte("flipped"))
	buf[intact+HeaderSize+2] ^= 0xff

	valid, n, err := Walk(buf, nil)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if valid != intact || n != 1 {
		t.Fatalf("valid=%d n=%d, want walk to stop after the first frame (%d bytes)", valid, n, intact)
	}

	// A truncated tail (partial header) is likewise not an error.
	valid, n, err = Walk(buf[:intact+3], nil)
	if err != nil || valid != intact || n != 1 {
		t.Fatalf("truncated tail: valid=%d n=%d err=%v, want %d,1,nil", valid, n, err, intact)
	}
}
