package server

// The one codec for what the store persists and what grows with history:
// report records, snapshots and moves. Everything is built from blocks — a u32
// entry count followed by that many entries — in the wire codec's conventions
// (little-endian scalars, IEEE-754 bits for floats); a report entry is the
// wire codec's own report payload (api.AppendReportPayload), so a report has
// one layout on the wire, in the log, in the store (reports.go) and in a
// snapshot.
//
//	report record  (recReports)       one report block, its entries keyed
//	capture record (recCapture)       patterns, labels, reports u32 × 3: the
//	                                  evidence a cycle read
//	pattern record (recPatternEntry)  id u32 | key str | a pattern entry
//	labels record  (recLabelBlock)    key str | one label block
//	move block     (recMove)          source str | segment str | first pattern,
//	                                  report, label position u32 × 3 | pattern,
//	                                  report, label block — a frame of a move
//	drop record    (recDropBlock)     a block of segment str
//	snapshot                          snapshotMagic, then wal frames of at most
//	                                  snapshotFrameBytes, each one block of the
//	                                  section its frame kind names
//
// Entry layouts (str is a u32 length and that many bytes):
//
//	report       flags u8 | key str16 | vehicle str16 | segment str16 | n u32 | n × (x, y, credit f64)
//	pattern      flags u8 | segment str | n u32 | n × (x, y, credit f64)      (id = position)
//	label        vehicle str | task u32 | value i8
//	fused        flags u8 | segment str | n u32 | n × (x, y[, weight] f64)
//	reliability  vehicle str | weight f64
//	idempotency  key str | status u16 | body str
//	received     source str | segment str | reports u32 | labels u32 | n u32 | n × pattern id u32
//	dropped      segment str | reports u32
//
// A snapshot's and a move block's reports carry no key, and are the store's
// own entries byte for byte. A move block's positions count within the
// segment on the source, and its labels name their pattern by that position.
//
// A report's or pattern's flags say what a count of 0 cannot: that the AP
// list is empty rather than absent. JSON kept the two apart, so a recovered
// store and a moved segment must keep them apart too. A fused entry's flags
// say that every weight is 1 — what fusion assigns — and the weights are left
// out.
//
// Decoding trusts nothing: every count is checked against the bytes that
// remain before it sizes an allocation, unknown flags, sections and trailing
// bytes are errors, and the CRC the log or the snapshot frame carries has
// already vouched for the bytes.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"crowdwifi/internal/api"
	"crowdwifi/internal/frame"
	"crowdwifi/internal/wal"
)

// snapshotMagic opens a snapshot payload in this codec. A payload that opens
// with '{' instead is the JSON snapshot of a retired format (errRetiredFormat).
const snapshotMagic = "CWSTATE\x02"

// snapshotFrameBytes bounds a snapshot frame that holds more than one entry,
// so that loading checks and decodes a megabyte at a time.
const snapshotFrameBytes = 1 << 20

// Snapshot sections: the kind byte of each frame after the magic.
const (
	secPatterns byte = 1 + iota
	secLabels
	secReports
	secFused
	secReliability
	secIdem
	secReceived
	secDropped
)

// flagEmptyList marks a report or pattern entry whose AP list is empty, not
// nil; flagUnitWeights a fused entry that leaves its weights, all 1, out.
const (
	flagEmptyList   byte = 1
	flagUnitWeights byte = 1
)

// errCodec marks persisted bytes that do not decode.
var errCodec = errors.New("server: malformed persisted state")

// newInterner returns a bytes-to-string conversion that shares one string
// among equal names, for the duration of one load: 20 k labels name a
// thousand vehicles. Decoders given a nil conversion copy.
func newInterner() func([]byte) string {
	seen := map[string]string{}
	return func(b []byte) string {
		if s, ok := seen[string(b)]; ok {
			return s
		}
		s := string(b)
		seen[s] = s
		return s
	}
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func listFlags(n int, isNil bool) byte {
	if n == 0 && !isNil {
		return flagEmptyList
	}
	return 0
}

// reportEntrySize is how many bytes appendReportEntry appends for r under key.
func reportEntrySize(key string, r Report) int {
	return 11 + len(key) + len(r.Vehicle) + len(r.Segment) + 24*len(r.APs)
}

// appendReportEntry appends one report entry. It fails only on what the
// report layout cannot carry: a name longer than 65535 bytes.
func appendReportEntry(dst []byte, key string, r Report) ([]byte, error) {
	dst = append(dst, listFlags(len(r.APs), r.APs == nil))
	return api.AppendReportPayload(dst, key, r)
}

func appendPatternEntry(dst []byte, p Pattern) []byte {
	dst = append(dst, listFlags(len(p.APs), p.APs == nil))
	return appendBlock(appendStr(dst, p.Segment), p.APs, func(dst []byte, ap APReport) []byte {
		return appendF64(appendF64(appendF64(dst, ap.X), ap.Y), ap.Credit)
	})
}

func appendLabelEntry(dst []byte, l Label) []byte {
	dst = appendStr(dst, l.Vehicle)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(l.TaskID))
	return append(dst, byte(int8(l.Value)))
}

// appendPatternRecord encodes a recPatternEntry payload. The id leads, so
// that a payload encoded before the id is known can have it written in place.
func appendPatternRecord(dst []byte, id int, key string, p Pattern) []byte {
	dst = slices.Grow(dst, 17+len(key)+len(p.Segment)+24*len(p.APs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	return appendPatternEntry(appendStr(dst, key), p)
}

// appendLabelsRecord encodes a recLabelBlock payload.
func appendLabelsRecord(dst []byte, key string, ls []Label) []byte {
	size := 8 + len(key)
	for _, l := range ls {
		size += 9 + len(l.Vehicle)
	}
	return appendBlock(appendStr(slices.Grow(dst, size), key), ls, appendLabelEntry)
}

func appendFusedEntry(dst []byte, segment string, results []LookupResult) []byte {
	unit := !slices.ContainsFunc(results, func(r LookupResult) bool { return r.Weight != 1 })
	if unit {
		dst = append(dst, flagUnitWeights)
	} else {
		dst = append(dst, 0)
	}
	dst = appendStr(dst, segment)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(results)))
	for _, r := range results {
		dst = appendF64(appendF64(dst, r.X), r.Y)
		if !unit {
			dst = appendF64(dst, r.Weight)
		}
	}
	return dst
}

func appendReliabilityEntry(dst []byte, vehicle string, w float64) []byte {
	return appendF64(appendStr(dst, vehicle), w)
}

func appendIdemEntry(dst []byte, e idemEntry) []byte {
	dst = appendStr(dst, e.Key)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(e.Status))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Body)))
	return append(dst, e.Body...)
}

func appendU32(dst []byte, n int) []byte { return binary.LittleEndian.AppendUint32(dst, uint32(n)) }

// appendBlock appends a block: the number of entries, then each.
func appendBlock[E any](dst []byte, es []E, entry func([]byte, E) []byte) []byte {
	dst = appendU32(dst, len(es))
	for _, e := range es {
		dst = entry(dst, e)
	}
	return dst
}

// moveBlock is one block of a segment's move: entries at consecutive
// positions of each kind within the segment on the source, from first on.
type moveBlock struct {
	source, segment string
	first           [3]int // positions of the first pattern, report and label
	patterns        []Pattern
	reports         [][]byte // keyless report entries
	labels          []Label  // TaskID is the pattern's position in the segment
	data            []byte   // the block as it arrived, logged as is
}

func patternEntrySize(p Pattern) int { return 9 + len(p.Segment) + 24*len(p.APs) }
func entrySize(e []byte) int         { return len(e) }
func labelEntrySize(l Label) int     { return 9 + len(l.Vehicle) }

// appendMoveBlock appends the data of one move frame.
func appendMoveBlock(dst []byte, m *moveBlock) []byte {
	dst = appendStr(appendStr(dst, m.source), m.segment)
	dst = appendU32(appendU32(appendU32(dst, m.first[0]), m.first[1]), m.first[2])
	dst = appendBlock(appendBlock(dst, m.patterns, appendPatternEntry), m.reports, appendEntry)
	return appendBlock(dst, m.labels, appendLabelEntry)
}

func appendEntry(dst, e []byte) []byte { return append(dst, e...) }

// appendMove appends all of one segment's move as frames, each block taking
// entries while its data stays within budget bytes (an entry too large for
// that gets a block to itself). Labels wait for the last pattern, so that a
// label never arrives before the pattern it names.
func appendMove(dst []byte, m moveBlock, budget int) []byte {
	limit := budget - (32 + len(m.source) + len(m.segment))
	var data []byte
	for len(m.patterns)+len(m.reports)+len(m.labels) > 0 {
		b := moveBlock{source: m.source, segment: m.segment, first: m.first}
		room := limit
		b.patterns, m.patterns = fit(m.patterns, patternEntrySize, &room, limit)
		b.reports, m.reports = fit(m.reports, entrySize, &room, limit)
		if len(m.patterns) == 0 {
			b.labels, m.labels = fit(m.labels, labelEntrySize, &room, limit)
		}
		data = appendMoveBlock(data[:0], &b)
		dst = frame.Append(dst, recMove, data)
		m.first = [3]int{b.first[0] + len(b.patterns), b.first[1] + len(b.reports), b.first[2] + len(b.labels)}
	}
	return dst
}

// fit splits off the entries a block with room bytes left still takes: those
// that fit, or one however large while the block is empty (room == limit).
func fit[E any](entries []E, size func(E) int, room *int, limit int) (head, rest []E) {
	i := 0
	for ; i < len(entries) && (size(entries[i]) <= *room || *room == limit); i++ {
		*room -= size(entries[i])
	}
	return entries[:i], entries[i:]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// packer packs encoded entries into blocks: a block takes entries while it
// stays within limit bytes, so only an entry larger than limit makes a larger
// block, and it is alone in it. emit receives each finished block, which the
// packer reuses unless emit calls release. The first error emit returns
// sticks and ends the packing. A caller that knows how many entry bytes are
// still to come says so in pending, and a block in fresh memory is then
// allocated at the size it will reach instead of grown to it.
type packer struct {
	limit   int
	emit    func(block []byte, entries int) error
	pending int
	buf     []byte
	n       int
	err     error
}

func (p *packer) add(entry []byte) {
	if p.n > 0 && len(p.buf)+len(entry) > p.limit {
		p.flush()
	}
	if p.n == 0 {
		if p.buf == nil && p.pending > 0 {
			p.buf = make([]byte, 0, 4+min(max(p.pending, len(entry)), p.limit))
		}
		p.buf = append(p.buf[:0], 0, 0, 0, 0)
	}
	p.buf = append(p.buf, entry...)
	p.pending -= len(entry)
	p.n++
}

func (p *packer) flush() {
	if p.n > 0 && p.err == nil {
		binary.LittleEndian.PutUint32(p.buf, uint32(p.n))
		p.err = p.emit(p.buf, p.n)
	}
	p.n = 0
}

// release hands the block emit just received over to emit's caller; the
// packer starts the next one in fresh memory.
func (p *packer) release() { p.buf = nil }

// appendCapture encodes a recCapture payload: how many patterns, labels and
// reports a cycle read.
func appendCapture(dst []byte, counts [3]int) []byte {
	return appendU32(appendU32(appendU32(dst, counts[0]), counts[1]), counts[2])
}

// WriteTo writes the full state to w as a snapshot payload, each frame as
// soon as it is cut, and returns the bytes written. The bytes are a function
// of the state alone: maps go out sorted, everything else in the order it is
// held. The reports go out as the store holds them: a reports frame is its
// count and then the run of the log's bytes its entries span, written from
// the log itself. A snapshot is a wal.WriteSnapshot payload.
func (st snapshotState) WriteTo(w io.Writer) (int64, error) {
	sw := snapshotWriter{w: w}
	sw.write([]byte(snapshotMagic))

	var kind byte
	p := packer{limit: snapshotFrameBytes}
	p.emit = func(block []byte, _ int) error { return sw.frame(kind, nil, block) }
	var e []byte // the entry being encoded
	section := func(k byte, n int, entry func(i int) []byte) {
		kind = k
		for i := 0; i < n && p.err == nil; i++ {
			e = entry(i)
			p.add(e)
		}
		p.flush()
	}
	section(secPatterns, len(st.Patterns), func(i int) []byte { return appendPatternEntry(e[:0], st.Patterns[i]) })
	section(secLabels, len(st.Labels), func(i int) []byte { return appendLabelEntry(e[:0], st.Labels[i]) })
	// The reports are cut where the packer would cut them: a frame takes
	// entries while its data stays within the limit, and at least one.
	l := st.Reports
	for i, j := 0, 0; i < l.len() && sw.err == nil; i = j {
		for j = i + 1; j < l.len() && 4+l.ends[j]-l.start(i) <= snapshotFrameBytes; j++ {
		}
		var count [4]byte
		binary.LittleEndian.PutUint32(count[:], uint32(j-i))
		sw.frame(secReports, count[:], l.buf[l.start(i):l.ends[j-1]])
	}
	fused, vehicles, dropped := sortedKeys(st.Fused), sortedKeys(st.Reliability), sortedKeys(st.Dropped)
	section(secFused, len(fused), func(i int) []byte { return appendFusedEntry(e[:0], fused[i], st.Fused[fused[i]]) })
	section(secReliability, len(vehicles), func(i int) []byte {
		return appendReliabilityEntry(e[:0], vehicles[i], st.Reliability[vehicles[i]])
	})
	section(secIdem, len(st.Idem), func(i int) []byte { return appendIdemEntry(e[:0], st.Idem[i]) })
	received := make([]moveKey, 0, len(st.Received))
	for k := range st.Received {
		received = append(received, k)
	}
	slices.SortFunc(received, func(a, b moveKey) int {
		return cmp.Or(strings.Compare(a.source, b.source), strings.Compare(a.segment, b.segment))
	})
	section(secReceived, len(received), func(i int) []byte {
		k, c := received[i], st.Received[received[i]]
		e = appendU32(appendU32(appendStr(appendStr(e[:0], k.source), k.segment), c.reports), c.labels)
		return appendBlock(e, c.patterns, appendU32)
	})
	section(secDropped, len(dropped), func(i int) []byte { return appendU32(appendStr(e[:0], dropped[i]), st.Dropped[dropped[i]]) })
	return sw.n, sw.err
}

// snapshotWriter writes a snapshot payload to w and counts the bytes it
// wrote. The first error sticks, and nothing is written after it.
type snapshotWriter struct {
	w   io.Writer
	n   int64
	err error
	hdr []byte // a frame's header and head, reused
}

func (sw *snapshotWriter) write(b []byte) {
	if sw.err == nil {
		n, err := sw.w.Write(b)
		sw.n += int64(n)
		sw.err = err
	}
}

// frame writes one frame of kind whose data is head and then body: the
// header and head in one write, and body, which is not copied, in another.
func (sw *snapshotWriter) frame(kind byte, head, body []byte) error {
	if size := len(head) + len(body); 1+size > wal.MaxRecordBytes && sw.err == nil {
		sw.err = fmt.Errorf("server: a %d-byte snapshot entry exceeds the frame size limit", size-4)
	}
	sw.hdr = append(frame.AppendHeader(sw.hdr[:0], kind, head, body), head...)
	sw.write(sw.hdr)
	sw.write(body)
	return sw.err
}

// reader is a cursor over persisted bytes. The first failure sticks: later
// reads return zeros, and the caller checks err once per block.
type reader struct {
	b   []byte
	str func([]byte) string // names go through it; nil copies
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errCodec}, args...)...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil || n > len(r.b) {
		r.fail("%d bytes wanted, %d remain", n, len(r.b))
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) f64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// bytes reads a str field without copying it.
func (r *reader) bytes() []byte {
	return r.take(r.count(1))
}

// name reads a str field that names a vehicle or a segment.
func (r *reader) name() string {
	b := r.bytes()
	if r.str == nil {
		return string(b)
	}
	return r.str(b)
}

// count reads an entry count and checks it against the bytes that remain,
// each entry taking at least min of them, so that a count sizes no allocation
// its input could not fill.
func (r *reader) count(min int) int {
	n := r.u32()
	if r.err == nil && uint64(n) > uint64(len(r.b)/min) {
		r.fail("a count of %d cannot fit in the %d bytes that remain", n, len(r.b))
		return 0
	}
	return int(n)
}

// end fails unless the input was consumed whole.
func (r *reader) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// emptyList checks an entry's flags against its list length and reports
// whether the list is empty rather than nil.
func (r *reader) emptyList(flags byte, n int) bool {
	if flags&^flagEmptyList != 0 || (flags == flagEmptyList && n != 0) {
		r.fail("entry flags %#02x with %d list elements", flags, n)
	}
	return flags == flagEmptyList && r.err == nil
}

func (r *reader) patternEntry() Pattern {
	flags := r.u8()
	p := Pattern{Segment: r.name()}
	p.APs = readBlock(r, nil, 24, func() APReport { return APReport{X: r.f64(), Y: r.f64(), Credit: r.f64()} })
	if r.emptyList(flags, len(p.APs)) {
		p.APs = []APReport{}
	}
	return p
}

func (r *reader) labelEntry() Label {
	return Label{Vehicle: r.name(), TaskID: r.u32int(), Value: int(int8(r.u8()))}
}

// fusedBlock reads a fused block into fused. Lists decode non-nil, as
// cycles build them, into one slab per block: each is a window of it capped
// at its length, and a result takes at least 16 of the block's bytes.
func (r *reader) fusedBlock(fused map[string][]LookupResult) {
	slab := make([]LookupResult, 0, len(r.b)/16)
	for n := r.count(9); n > 0 && r.err == nil; n-- {
		flags := r.u8()
		if flags&^flagUnitWeights != 0 {
			r.fail("fused entry flags %#02x", flags)
		}
		seg := r.name()
		unit, stride := flags == flagUnitWeights, 24
		if unit {
			stride = 16
		}
		at := len(slab)
		for k := r.count(stride); k > 0; k-- {
			res := LookupResult{X: r.f64(), Y: r.f64(), Weight: 1}
			if !unit {
				res.Weight = r.f64()
			}
			slab = append(slab, res)
		}
		fused[seg] = slab[at:len(slab):len(slab)]
	}
}

// readBlock appends a block's entries to dst, each read by entry and at
// least min bytes long.
func readBlock[E any](r *reader, dst []E, min int, entry func() E) []E {
	n := r.count(min)
	dst = slices.Grow(dst, n)
	for ; n > 0 && r.err == nil; n-- {
		dst = append(dst, entry())
	}
	return dst
}

func (r *reader) u32int() int { return int(r.u32()) }

// decodeReportKeys checks a recReports payload and returns its entries' keys;
// the entries themselves are applied as they are.
func decodeReportKeys(data []byte) ([]string, error) {
	r := reader{b: data}
	keys := readBlock(&r, nil, 11, func() string { return string(r.report().key) })
	return keys, r.end()
}

// decodeCapture decodes a recCapture payload.
func decodeCapture(data []byte) ([3]int, error) {
	r := reader{b: data}
	counts := [3]int{r.u32int(), r.u32int(), r.u32int()}
	return counts, r.end()
}

// decodePatternRecord decodes a recPatternEntry payload.
func decodePatternRecord(data []byte, str func([]byte) string) (key string, p Pattern, err error) {
	r := reader{b: data, str: str}
	id := r.u32int()
	key = string(r.bytes())
	p = r.patternEntry()
	p.ID = id
	return key, p, r.end()
}

// decodeLabelsRecord decodes a recLabelBlock payload.
func decodeLabelsRecord(data []byte, str func([]byte) string) (key string, ls []Label, err error) {
	r := reader{b: data, str: str}
	key = string(r.bytes())
	ls = readBlock(&r, nil, 9, r.labelEntry)
	return key, ls, r.end()
}

// decodeSegments decodes a recDropBlock payload.
func decodeSegments(data []byte, str func([]byte) string) ([]string, error) {
	r := reader{b: data, str: str}
	segments := readBlock(&r, nil, 4, r.name)
	return segments, r.end()
}

// decodeMoveBlock decodes the data of one move frame. It refuses what no
// store would have exported: an entry of another segment, a keyed report, a
// non-finite coordinate, a label that is not ±1.
func decodeMoveBlock(data []byte, str func([]byte) string) (moveBlock, error) {
	r := reader{b: data, str: str}
	m := moveBlock{source: r.name(), segment: r.name(), first: [3]int{r.u32int(), r.u32int(), r.u32int()}, data: data}
	m.patterns = readBlock(&r, nil, 9, func() Pattern {
		p := r.patternEntry()
		if p.Segment != m.segment || checkAPs(p.APs) != nil {
			r.fail("a pattern of segment %q in a block of %q", p.Segment, m.segment)
		}
		return p
	})
	m.reports = readBlock(&r, nil, 11, func() []byte {
		e := r.report()
		if r.err == nil && (len(e.key) != 0 || string(e.segment) != m.segment || !e.check()) {
			r.fail("a report keyed %q of segment %q in a block of %q", e.key, e.segment, m.segment)
		}
		return e.data
	})
	m.labels = readBlock(&r, nil, 9, func() Label {
		l := r.labelEntry()
		if l.Value != 1 && l.Value != -1 {
			r.fail("label value %d", l.Value)
		}
		return l
	})
	return m, r.end()
}

// decodeMove decodes a move: a stream of recMove frames, nothing else.
func decodeMove(stream []byte) ([]moveBlock, error) {
	var blocks []moveBlock
	str := newInterner()
	valid, _, err := frame.Walk(stream, func(_ int, kind byte, data []byte) error {
		if kind != recMove {
			return fmt.Errorf("%w: a frame of kind %d in a move", errCodec, kind)
		}
		m, err := decodeMoveBlock(data, str)
		blocks = append(blocks, m)
		return err
	})
	if err == nil && valid != int64(len(stream)) {
		err = fmt.Errorf("%w: a move does not frame past byte %d of %d", errCodec, valid, len(stream))
	}
	return blocks, err
}

// decodeSnapshotPayload decodes a snapshot payload in one pass over its
// frames, and takes data over. The reports are checked where they lie, then
// moved down over the bytes already decoded, so that the front of data
// becomes the report log. Nothing else decoded aliases data: names go through
// str or are copied, and idempotency bodies are cloned.
func decodeSnapshotPayload(data []byte, str func([]byte) string) (snapshotState, error) {
	if bytes.HasPrefix(data, []byte("{")) {
		return snapshotState{}, fmt.Errorf("a JSON snapshot: %w", errRetiredFormat)
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return snapshotState{}, fmt.Errorf("%w: a snapshot does not open with %q", errCodec, snapshotMagic)
	}
	st := snapshotState{Fused: map[string][]LookupResult{}, Reliability: map[string]float64{}, Received: map[moveKey]moveCursor{}, Dropped: map[string]int{}}
	var reports [][]byte // the runs of data the reports fill, in order
	size := 0            // the bytes of reports checked so far
	body := data[len(snapshotMagic):]
	valid, _, err := frame.Walk(body, func(_ int, kind byte, block []byte) error {
		r := reader{b: block, str: str}
		switch kind {
		case secPatterns:
			first := len(st.Patterns)
			st.Patterns = readBlock(&r, st.Patterns, 9, r.patternEntry)
			for i := first; i < len(st.Patterns); i++ {
				st.Patterns[i].ID = i
			}
		case secLabels:
			st.Labels = readBlock(&r, st.Labels, 9, r.labelEntry)
		case secReports:
			n := r.count(11)
			entries := r.b
			for ; n > 0 && r.err == nil; n-- {
				if e := r.report(); len(e.key) != 0 {
					r.fail("a snapshot report carries the key %q", e.key)
				}
				st.Reports.ends = append(st.Reports.ends, size+len(entries)-len(r.b))
			}
			reports = append(reports, entries[:len(entries)-len(r.b)])
			size += len(reports[len(reports)-1])
		case secFused:
			r.fusedBlock(st.Fused)
		case secReliability:
			for n := r.count(12); n > 0 && r.err == nil; n-- {
				vehicle := r.name()
				st.Reliability[vehicle] = r.f64()
			}
		case secIdem:
			st.Idem = readBlock(&r, st.Idem, 10, func() idemEntry {
				return idemEntry{Key: string(r.bytes()), Status: int(r.u16()), Body: bytes.Clone(r.bytes())}
			})
		case secReceived:
			for n := r.count(20); n > 0 && r.err == nil; n-- {
				k := moveKey{source: r.name(), segment: r.name()}
				c := moveCursor{reports: r.u32int(), labels: r.u32int()}
				c.patterns = readBlock(&r, nil, 4, r.u32int)
				st.Received[k] = c
			}
		case secDropped:
			for n := r.count(8); n > 0 && r.err == nil; n-- {
				seg := r.name()
				st.Dropped[seg] = r.u32int()
			}
		default:
			return fmt.Errorf("%w: unknown snapshot section %d", errCodec, kind)
		}
		return r.end()
	})
	if err != nil {
		return snapshotState{}, err
	}
	if valid != int64(len(body)) {
		return snapshotState{}, fmt.Errorf("%w: snapshot does not frame past byte %d of %d", errCodec, int64(len(snapshotMagic))+valid, len(data))
	}
	st.Reports.buf = data[:0]
	for _, run := range reports {
		st.Reports.buf = append(st.Reports.buf, run...) // run lies at or past the end
	}
	return st, nil
}
