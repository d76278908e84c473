package api

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"unicode/utf8"

	"crowdwifi/internal/frame"
)

// Binary wire codec (application/x-crowdwifi-frame).
//
// The codec and the WAL share one CRC32C frame layout (internal/frame):
//
//	len u32 LE | crc u32 LE | kind u8 | data …
//
// so a report travels the wire in the same envelope it is logged in. A
// request or response body is a concatenation of frames; a body with a
// damaged, trailing-partial, or unexpected-kind frame is rejected whole —
// unlike log recovery, the wire has no torn tail to forgive.
//
// Payload scalars are little-endian: strings are u16-length-prefixed UTF-8,
// counts are u32, coordinates/weights are IEEE-754 f64 bits.

// FrameContentType is the negotiated media type for the binary codec. A
// request carrying it as Content-Type has a frame body; a request carrying
// it in Accept asks for a frame response.
const FrameContentType = "application/x-crowdwifi-frame"

// Wire frame kinds. These live in the HTTP codec's namespace, not the WAL's
// record-kind namespace: the shared piece is the envelope, not the registry.
const (
	wireReport      byte = 0x01
	wireLookup      byte = 0x02
	wireBatchStatus byte = 0x03
)

// ErrWireFrame reports a binary body that does not decode as the expected
// sequence of frames. The text reaches clients in 400 bodies, so it keeps the
// prefix it had when the codec lived in internal/server.
var ErrWireFrame = errors.New("server: malformed wire frame")

// BatchEntry is one report in a batch upload, paired with its own
// idempotency key so a replayed batch dedupes entry by entry.
type BatchEntry struct {
	Key    string `json:"key,omitempty"`
	Report Report `json:"report"`
}

// BatchRequest is the JSON form of POST /v1/reports/batch. The binary form
// is a concatenation of report frames, one per entry, each with its key
// embedded.
type BatchRequest struct {
	Entries []BatchEntry `json:"entries"`
}

// BatchEntryStatus is one entry's outcome in a batch upload response. Status
// carries the HTTP status the entry would have received as a single upload;
// Owner names the owning shard when Status is 421 so a relay can re-route
// the entry without re-deriving ownership.
type BatchEntryStatus struct {
	Key    string `json:"key,omitempty"`
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	Owner  string `json:"owner,omitempty"`
}

// Ok reports whether the entry was durably accepted (stored now or replayed
// from the idempotency cache).
func (s BatchEntryStatus) Ok() bool { return s.Status >= 200 && s.Status < 300 }

// BatchResponse is the per-entry status vector for a batch upload, in
// request order. Results is always a JSON array, never null.
type BatchResponse struct {
	Results []BatchEntryStatus `json:"results"`
}

func appendWireString(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: string field of %d bytes exceeds %d", ErrWireFrame, len(s), math.MaxUint16)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func readWireBytes(b []byte) (field, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated string length", ErrWireFrame)
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, fmt.Errorf("%w: string of %d bytes truncated at %d", ErrWireFrame, n, len(b))
	}
	return b[:n], b[n:], nil
}

func readWireString(b []byte) (string, []byte, error) {
	field, rest, err := readWireBytes(b)
	return string(field), rest, err
}

func appendWireF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func readWireF64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated float64", ErrWireFrame)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// AppendReportPayload appends one report's bare payload — key, vehicle,
// segment, AP count, APs; no frame envelope — to dst. It is the one report
// layout: a wire frame carries it, and the store logs and snapshots it as is.
// A nil and an empty AP list both encode as count 0.
func AppendReportPayload(dst []byte, key string, rep Report) ([]byte, error) {
	if len(rep.APs) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d access points", ErrWireFrame, len(rep.APs))
	}
	var err error
	for _, s := range []string{key, rep.Vehicle, rep.Segment} {
		if dst, err = appendWireString(dst, s); err != nil {
			return nil, err
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rep.APs)))
	for _, ap := range rep.APs {
		dst = appendWireF64(dst, ap.X)
		dst = appendWireF64(dst, ap.Y)
		dst = appendWireF64(dst, ap.Credit)
	}
	return dst, nil
}

// EncodeReportFrame appends one report frame — with its per-entry
// idempotency key, which may be empty — to dst and returns the extended
// slice. Concatenating the results of successive calls yields a valid batch
// body.
func EncodeReportFrame(dst []byte, key string, rep Report) ([]byte, error) {
	payload, err := AppendReportPayload(make([]byte, 0, 10+len(key)+len(rep.Vehicle)+len(rep.Segment)+24*len(rep.APs)), key, rep)
	if err != nil {
		return nil, err
	}
	return frame.Append(dst, wireReport, payload), nil
}

// readReportPayload decodes the report payload at the front of b and returns
// the bytes after it. The AP count is checked against the bytes present
// before anything is allocated, and a count of 0 decodes to a nil list.
func readReportPayload(b []byte) (key string, rep Report, rest []byte, err error) {
	k, vehicle, segment, n, b, err := readReportHead(b)
	if err != nil {
		return "", Report{}, nil, err
	}
	key, rep.Vehicle, rep.Segment = string(k), string(vehicle), string(segment)
	if n > 0 {
		rep.APs = make([]APReport, n)
		for i := range rep.APs {
			rep.APs[i].X, b, _ = readWireF64(b)
			rep.APs[i].Y, b, _ = readWireF64(b)
			rep.APs[i].Credit, b, _ = readWireF64(b)
		}
	}
	return key, rep, b, nil
}

// readReportHead parses a report payload up to its APs: the three strings,
// aliasing b, and the AP count, checked against the bytes present. rest
// starts at the first AP.
func readReportHead(b []byte) (key, vehicle, segment []byte, n int, rest []byte, err error) {
	for _, field := range []*[]byte{&key, &vehicle, &segment} {
		if *field, b, err = readWireBytes(b); err != nil {
			return nil, nil, nil, 0, nil, err
		}
	}
	if len(b) < 4 {
		return nil, nil, nil, 0, nil, fmt.Errorf("%w: truncated AP count", ErrWireFrame)
	}
	n = int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > len(b)/24 {
		return nil, nil, nil, 0, nil, fmt.Errorf("%w: %d APs need %d payload bytes, have %d", ErrWireFrame, n, 24*n, len(b))
	}
	return key, vehicle, segment, n, b, nil
}

// ReportFrame is one decoded report frame plus its exact encoded bytes, so
// a relay can regroup entries into per-shard sub-batches without
// re-encoding (and without disturbing the bytes a shard will checksum).
type ReportFrame struct {
	Key    string
	Report Report
	Raw    []byte
}

// SplitReportFrames decodes a binary upload body into its report frames.
// The whole body must parse: damaged frames, trailing garbage, and frames
// of any other kind are rejected with ErrWireFrame.
func SplitReportFrames(body []byte) ([]ReportFrame, error) {
	var frames []ReportFrame
	err := walkReportFrames(body, func(data, raw []byte) error {
		key, rep, rest, err := readReportPayload(data)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("%w: %d bytes after the report's last AP", ErrWireFrame, len(rest))
		}
		frames = append(frames, ReportFrame{Key: key, Report: rep, Raw: raw})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// ScanReportFrames checks a binary upload body exactly as SplitReportFrames
// does and calls fn with each frame's key, segment and exact bytes, in body
// order, decoding nothing else: what a relay routing by segment needs, at no
// allocation. key, segment and raw alias body. On an error, what fn was
// given is not an accepted body's frames and must be dropped.
func ScanReportFrames(body []byte, fn func(key, segment, raw []byte)) error {
	return walkReportFrames(body, func(data, raw []byte) error {
		key, _, segment, n, rest, err := readReportHead(data)
		if err != nil {
			return err
		}
		if len(rest) != 24*n {
			return fmt.Errorf("%w: %d bytes after the report's last AP", ErrWireFrame, len(rest)-24*n)
		}
		fn(key, segment, raw)
		return nil
	})
}

// walkReportFrames calls fn with each frame's data and exact bytes, and
// rejects a body with a damaged frame, a frame of another kind or trailing
// bytes.
func walkReportFrames(body []byte, fn func(data, raw []byte) error) error {
	off := 0
	valid, _, err := frame.Walk(body, func(_ int, kind byte, data []byte) error {
		end := off + int(frame.Size(len(data)))
		raw := body[off:end]
		off = end
		if kind != wireReport {
			return fmt.Errorf("%w: unexpected frame kind 0x%02x", ErrWireFrame, kind)
		}
		return fn(data, raw)
	})
	if err != nil {
		return err
	}
	if valid != int64(len(body)) {
		return fmt.Errorf("%w: %d trailing bytes do not frame", ErrWireFrame, int64(len(body))-valid)
	}
	return nil
}

// EncodeLookupFrame encodes a lookup answer as a single frame.
func EncodeLookupFrame(results []LookupResult) []byte {
	payload := make([]byte, 0, 4+24*len(results))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(results)))
	for _, res := range results {
		payload = appendWireF64(payload, res.X)
		payload = appendWireF64(payload, res.Y)
		payload = appendWireF64(payload, res.Weight)
	}
	return frame.Append(nil, wireLookup, payload)
}

// DecodeLookupFrame parses a binary lookup response body. An empty answer
// decodes to a non-nil empty slice, mirroring the JSON []-not-null contract.
func DecodeLookupFrame(body []byte) ([]LookupResult, error) {
	data, err := soleFrame(body, wireLookup)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: truncated result count", ErrWireFrame)
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) != 24*n {
		return nil, fmt.Errorf("%w: %d results need %d payload bytes, have %d", ErrWireFrame, n, 24*n, len(data))
	}
	results := make([]LookupResult, n)
	for i := range results {
		results[i].X, data, _ = readWireF64(data)
		results[i].Y, data, _ = readWireF64(data)
		results[i].Weight, data, _ = readWireF64(data)
	}
	return results, nil
}

// EncodeBatchStatusFrame encodes a batch status vector as a single frame. An
// entry's error message longer than a string field holds is cut to fit, on a
// UTF-8 boundary: a 421 quoting a long segment must not fail every entry.
func EncodeBatchStatusFrame(results []BatchEntryStatus) ([]byte, error) {
	size := 4
	for _, st := range results {
		size += 8 + len(st.Key) + len(st.Error) + len(st.Owner)
	}
	payload := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(results)))
	var err error
	for _, st := range results {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(st.Status))
		for _, s := range []string{st.Key, clipUTF8(st.Error, math.MaxUint16), st.Owner} {
			if payload, err = appendWireString(payload, s); err != nil {
				return nil, err
			}
		}
	}
	return frame.Append(nil, wireBatchStatus, payload), nil
}

// clipUTF8 returns the longest prefix of s of at most n bytes that ends on a
// UTF-8 boundary.
func clipUTF8(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n]
}

// DecodeBatchStatusFrame parses a binary batch response body. An empty
// vector decodes to a non-nil empty slice.
func DecodeBatchStatusFrame(body []byte) ([]BatchEntryStatus, error) {
	data, err := soleFrame(body, wireBatchStatus)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: truncated status count", ErrWireFrame)
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	// The count is untrusted and sizes an allocation: a status occupies at
	// least 8 payload bytes (u16 status + three u16 string lengths).
	if n > len(data)/8 {
		return nil, fmt.Errorf("%w: %d statuses cannot fit in %d payload bytes", ErrWireFrame, n, len(data))
	}
	results := make([]BatchEntryStatus, 0, n)
	for i := 0; i < n; i++ {
		var st BatchEntryStatus
		if len(data) < 2 {
			return nil, fmt.Errorf("%w: truncated status code", ErrWireFrame)
		}
		st.Status = int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		for _, field := range []*string{&st.Key, &st.Error, &st.Owner} {
			if *field, data, err = readWireString(data); err != nil {
				return nil, err
			}
		}
		results = append(results, st)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrWireFrame, len(data))
	}
	return results, nil
}

// soleFrame decodes body as exactly one frame of the wanted kind.
func soleFrame(body []byte, want byte) ([]byte, error) {
	var payload []byte
	valid, n, err := frame.Walk(body, func(i int, kind byte, data []byte) error {
		if i > 0 {
			return fmt.Errorf("%w: expected a single frame", ErrWireFrame)
		}
		if kind != want {
			return fmt.Errorf("%w: unexpected frame kind 0x%02x, want 0x%02x", ErrWireFrame, kind, want)
		}
		payload = data
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n != 1 || valid != int64(len(body)) {
		return nil, fmt.Errorf("%w: body is not a single intact frame", ErrWireFrame)
	}
	return payload, nil
}

// IsFrameRequest reports whether the request body is in the binary codec.
func IsFrameRequest(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), FrameContentType)
}

// WantsFrame reports whether the Accept header asks for a binary response.
func WantsFrame(accept string) bool {
	return strings.Contains(accept, FrameContentType)
}
