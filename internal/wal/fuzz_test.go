package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"crowdwifi/internal/frame"
)

// openAllocSlack is what Open may allocate beyond one copy of the segment it
// reads: the directory listing, the file handle, the Log itself.
const openAllocSlack = 64 << 10

// FuzzOpenTornSegment writes valid records followed by arbitrary bytes as a
// log's final segment. Open must keep exactly the records (including any
// frame the tail happens to hold intact), cut the rest and say how much it
// cut, without allocating beyond the file; IterateDir over an untouched copy
// must stream the same records; and the same bytes as a sealed segment must
// be an error whenever anything was cut, never a panic.
func FuzzOpenTornSegment(f *testing.F) {
	whole := frame.Append(nil, 7, []byte("intact"))
	f.Add([]byte("\x01a\x00\x02bb\x00\x03ccc"), []byte{})
	f.Add([]byte("\x01a\x00\x02bb"), whole[:5])                                        // torn header
	f.Add([]byte("\x01a"), whole[:len(whole)-1])                                       // torn payload
	f.Add([]byte("\x01a"), append(bytes.Clone(whole), 0xde, 0xad))                     // an intact frame, then junk
	f.Add([]byte("\xffprobe\x00\x01data"), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // huge length
	f.Add([]byte{}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 9})                                 // CRC mismatch
	f.Fuzz(func(t *testing.T, records, tail []byte) {
		var seg []byte
		var want []Record
		note := func(seq uint64, kind byte, data []byte) {
			if kind == KindProbe {
				return
			}
			r := Record{Seq: seq, Kind: kind}
			if len(data) > 0 {
				r.Data = bytes.Clone(data)
			}
			want = append(want, r)
		}
		chunks := bytes.SplitN(records, []byte{0}, 32)
		for i, chunk := range chunks {
			kind := byte(1)
			if len(chunk) > 0 {
				kind, chunk = chunk[0], chunk[1:]
			}
			seg = frame.Append(seg, kind, chunk)
			note(uint64(i+1), kind, chunk)
		}
		head := len(chunks)
		validTail, inTail, _ := frame.Walk(tail, func(i int, kind byte, data []byte) error {
			note(uint64(head+i+1), kind, data)
			return nil
		})
		frames := head + inTail
		file := append(seg, tail...)
		cut := int64(len(tail)) - validTail

		dir, untouched := t.TempDir(), t.TempDir()
		for _, d := range []string{dir, untouched} {
			if err := os.WriteFile(filepath.Join(d, segmentName(1)), file, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, info, err := Open(dir, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(file)+openAllocSlack) {
			t.Fatalf("opening a %d-byte segment allocated %d", len(file), grew)
		}
		if info.TruncatedBytes != cut || info.NextSeq != uint64(frames+1) {
			t.Fatalf("TruncatedBytes %d, NextSeq %d; want %d, %d", info.TruncatedBytes, info.NextSeq, cut, frames+1)
		}
		if st, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil || st.Size() != int64(len(file))-cut {
			t.Fatalf("segment after Open: %v (err %v), want %d bytes", st, err, int64(len(file))-cut)
		}
		got := collectFuzz(t, func(fn func(Record) error) error { return l.Replay(0, fn) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Replay after Open:\n got %v\nwant %v", got, want)
		}

		if got := collectFuzz(t, func(fn func(Record) error) error { return IterateDir(untouched, 0, fn) }); !reflect.DeepEqual(got, want) {
			t.Fatalf("IterateDir over the untouched copy:\n got %v\nwant %v", got, want)
		}
		if left, _ := os.ReadFile(filepath.Join(untouched, segmentName(1))); !bytes.Equal(left, file) {
			t.Fatal("IterateDir modified the segment")
		}

		// Sealed: the same bytes followed by an empty active segment.
		sealed := t.TempDir()
		if err := os.WriteFile(filepath.Join(sealed, segmentName(1)), file, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sealed, segmentName(uint64(frames+1))), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		iterErr := IterateDir(sealed, 0, func(Record) error { return nil })
		sl, _, err := Open(sealed, Options{})
		if err != nil {
			t.Fatalf("Open with a sealed segment: %v", err)
		}
		defer sl.Close()
		replayErr := sl.Replay(0, func(Record) error { return nil })
		if damaged := cut > 0; (iterErr != nil) != damaged || (replayErr != nil) != damaged {
			t.Fatalf("sealed segment with %d damaged bytes: IterateDir err %v, Replay err %v", cut, iterErr, replayErr)
		}
	})
}

// collectFuzz gathers what one record stream yields; nil and empty data
// compare equal.
func collectFuzz(t *testing.T, stream func(func(Record) error) error) []Record {
	t.Helper()
	var out []Record
	if err := stream(func(r Record) error {
		if len(r.Data) == 0 {
			r.Data = nil
		}
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return out
}
