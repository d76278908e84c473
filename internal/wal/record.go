package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layout, little-endian:
//
//	┌──────────┬──────────┬────────┬─────────────┐
//	│ len u32  │ crc u32  │ kind u8│ data …      │
//	└──────────┴──────────┴────────┴─────────────┘
//
// len counts the payload (kind + data); crc is CRC32-C (Castagnoli) over the
// payload. A frame whose length field, checksum, or remaining bytes do not
// add up marks the end of the trustworthy log: everything before it is
// intact, everything from it on is discarded.
//
// The same layout doubles as the crowdwifi binary wire codec
// (application/x-crowdwifi-frame): AppendFrame, WalkFrames, and FrameSize are
// exported so the HTTP layer frames reports and lookup answers exactly the
// way the log frames records.
const (
	// FrameHeaderSize is the fixed per-frame overhead before the payload.
	FrameHeaderSize = 8
	// MaxRecordBytes bounds one record's payload (kind + data). The cap
	// exists so a corrupted length field cannot ask recovery to allocate
	// gigabytes before the checksum gets a chance to reject the frame.
	MaxRecordBytes = 16 << 20
)

// ErrTooLarge reports an append whose payload exceeds MaxRecordBytes.
var ErrTooLarge = errors.New("wal: record exceeds MaxRecordBytes")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the framed record to dst and returns the extended
// slice.
func AppendFrame(dst []byte, kind byte, data []byte) []byte {
	n := 1 + len(data)
	var hdr [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	crc := crc32.Update(0, castagnoli, []byte{kind})
	crc = crc32.Update(crc, castagnoli, data)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, kind)
	return append(dst, data...)
}

// FrameSize returns the encoded size of a frame with len(data) data bytes.
func FrameSize(dataLen int) int64 {
	return int64(FrameHeaderSize + 1 + dataLen)
}

// WalkFrames decodes consecutive frames from buf, calling fn with each
// record's index, kind, and data. It returns the offset just past the last
// valid frame and the number of valid frames. Framing damage (truncated
// header, oversized or zero length, checksum mismatch, short payload) is not
// an error: the walk stops at the damaged frame and valid < len(buf) tells
// the caller the tail is not trustworthy. A non-nil error is fn's own,
// propagated immediately.
func WalkFrames(buf []byte, fn func(i int, kind byte, data []byte) error) (valid int64, n int, err error) {
	off := 0
	for off+FrameHeaderSize <= len(buf) {
		length := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		if length < 1 || length > MaxRecordBytes || off+FrameHeaderSize+length > len(buf) {
			break
		}
		payload := buf[off+FrameHeaderSize : off+FrameHeaderSize+length]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[off+4:off+8]) {
			break
		}
		if fn != nil {
			if err := fn(n, payload[0], payload[1:]); err != nil {
				return int64(off), n, err
			}
		}
		off += FrameHeaderSize + length
		n++
	}
	return int64(off), n, nil
}

// gapError describes a log whose oldest surviving segment starts after the
// first record a replay was asked for: the records between were compacted
// away or their segment was lost, and replaying the rest would silently drop
// them.
func gapError(dir string, after, first uint64) error {
	return fmt.Errorf("wal: log in %s is corrupt: records %d through %d are missing, the oldest segment starts at %d", dir, after+1, first-1, first)
}

// corruptionError describes framing damage found where it cannot be healed
// by tail truncation.
func corruptionError(path string, off int64) error {
	return fmt.Errorf("wal: segment %s corrupt at offset %d", path, off)
}
