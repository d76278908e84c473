// Package frame is the CRC-framed record envelope the write-ahead log and the
// binary wire codec (application/x-crowdwifi-frame) share: the log frames its
// records and the HTTP layer frames reports and lookup answers the same way.
// It imports only the standard library, so a vehicle that speaks the wire
// codec does not link the log.
//
// Frame layout, little-endian:
//
//	┌──────────┬──────────┬────────┬─────────────┐
//	│ len u32  │ crc u32  │ kind u8│ data …      │
//	└──────────┴──────────┴────────┴─────────────┘
//
// len counts the payload (kind + data); crc is CRC32-C (Castagnoli) over the
// payload. A frame whose length field, checksum, or remaining bytes do not
// add up marks the end of the trustworthy bytes: everything before it is
// intact, everything from it on is discarded.
package frame

import (
	"encoding/binary"
	"hash/crc32"
)

const (
	// HeaderSize is the fixed per-frame overhead before the payload.
	HeaderSize = 8
	// MaxPayload bounds one frame's payload (kind + data). The cap exists so
	// a corrupted length field cannot ask a reader to allocate gigabytes
	// before the checksum gets a chance to reject the frame.
	MaxPayload = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Append appends the framed record to dst and returns the extended slice.
func Append(dst []byte, kind byte, data []byte) []byte {
	return append(AppendHeader(dst, kind, data), data...)
}

// AppendHeader appends what precedes the data in the frame of a record whose
// data is parts back to back: the length, the CRC and the kind. A writer
// that sends the header and then each part sends the frame Append would
// have built, without copying the data into it.
func AppendHeader(dst []byte, kind byte, parts ...[]byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	n := 1
	crc := crc32.Update(0, castagnoli, dst[start+HeaderSize:])
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, castagnoli, p)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	binary.LittleEndian.PutUint32(dst[start+4:], crc)
	return dst
}

// Size returns the encoded size of a frame with dataLen data bytes.
func Size(dataLen int) int64 {
	return int64(HeaderSize + 1 + dataLen)
}

// Walk decodes consecutive frames from buf, calling fn with each record's
// index, kind, and data. It returns the offset just past the last valid frame
// and the number of valid frames. Framing damage (truncated header, oversized
// or zero length, checksum mismatch, short payload) is not an error: the walk
// stops at the damaged frame and valid < len(buf) tells the caller the tail is
// not trustworthy. A non-nil error is fn's own, propagated immediately.
func Walk(buf []byte, fn func(i int, kind byte, data []byte) error) (valid int64, n int, err error) {
	off := 0
	for off+HeaderSize <= len(buf) {
		length := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		if length < 1 || length > MaxPayload || off+HeaderSize+length > len(buf) {
			break
		}
		payload := buf[off+HeaderSize : off+HeaderSize+length]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[off+4:off+8]) {
			break
		}
		if fn != nil {
			if err := fn(n, payload[0], payload[1:]); err != nil {
				return int64(off), n, err
			}
		}
		off += HeaderSize + length
		n++
	}
	return int64(off), n, nil
}
