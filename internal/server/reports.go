package server

// The store's reports, kept as the bytes they were logged as. A report is
// validated and encoded once, before the lock, by the path that accepts it;
// from then on it is the entry it was logged as, less its idempotency key.
// Applying a record, installing a snapshot and applying a move copy entries;
// a snapshot and a move export write them back out as they are; and the
// passes that need a report's values (a cycle's regroup, the digests, a move
// export, a drop) read them in place.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// reportLog is the store's reports: keyless report entries (codec.go's report
// layout with an empty key) back to back in arrival order, and the offset each
// one ends at. It holds no pointer per report, so a report costs no heap
// object of its own and the collector has nothing in it to scan. It is only
// ever appended to, and a prefix taken with prefix is capped, so what a
// capture holds cannot change under it.
type reportLog struct {
	buf  []byte
	ends []int
}

func (l reportLog) len() int { return len(l.ends) }

func (l reportLog) start(i int) int {
	if i == 0 {
		return 0
	}
	return l.ends[i-1]
}

// entry returns the i-th report's bytes.
func (l reportLog) entry(i int) []byte { return l.buf[l.start(i):l.ends[i]] }

// prefix returns the first n reports, capped so that appends to l never reach
// it.
func (l reportLog) prefix(n int) reportLog {
	end := l.start(n)
	return reportLog{buf: l.buf[:end:end], ends: l.ends[:n:n]}
}

// grow makes room for n more reports of size bytes in all.
func (l *reportLog) grow(size, n int) {
	l.buf = slices.Grow(l.buf, size)
	l.ends = slices.Grow(l.ends, n)
}

// add appends an entry, which must be keyless.
func (l *reportLog) add(e []byte) {
	l.buf = append(l.buf, e...)
	l.ends = append(l.ends, len(l.buf))
}

// addStripped appends an entry without its key.
func (l *reportLog) addStripped(e reportEntry) {
	l.buf = append(l.buf, e.data[0], 0, 0)
	l.buf = append(l.buf, e.data[3+len(e.key):]...)
	l.ends = append(l.ends, len(l.buf))
}

// reportEntry is a report entry read in place: every field aliases the bytes
// it was read from.
type reportEntry struct {
	data                  []byte // the whole entry
	key, vehicle, segment []byte
	aps                   []byte // 24 bytes per access point: x, y, credit
}

// parseEntry reads an entry the store holds, which reader.report checked on
// its way in: flags u8 | key, vehicle, segment str16 | n u32 | APs.
func parseEntry(e []byte) reportEntry {
	vehicle := 3 + int(binary.LittleEndian.Uint16(e[1:]))
	segment := vehicle + 2 + int(binary.LittleEndian.Uint16(e[vehicle:]))
	aps := segment + 2 + int(binary.LittleEndian.Uint16(e[segment:]))
	return reportEntry{data: e, key: e[3:vehicle], vehicle: e[vehicle+2 : segment], segment: e[segment+2 : aps], aps: e[aps+4:]}
}

func (e reportEntry) numAPs() int { return len(e.aps) / 24 }

// ap returns the k-th access point's coordinates and credit.
func (e *reportEntry) ap(k int) (x, y, credit float64) {
	b := e.aps[24*k : 24*k+24]
	return math.Float64frombits(binary.LittleEndian.Uint64(b)),
		math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
}

// check is the one rule for a valid report, which every report the store
// logs or a move brings passes: a vehicle, a segment, and coordinates and
// credits that are finite (a frame can carry a NaN, which would poison every
// fusion of its segment).
func (e reportEntry) check() error {
	if len(e.vehicle) == 0 || len(e.segment) == 0 {
		return errUnnamed
	}
	for k := 0; k < 3*e.numAPs(); k++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(e.aps[8*k:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("access point %d has a non-finite coordinate or credit", k/3)
		}
	}
	return nil
}

// report reads one report entry in place, refusing flags that do not match
// the AP count and an AP count that overruns the bytes that remain.
func (r *reader) report() reportEntry {
	start := r.b
	flags := r.u8()
	e := reportEntry{key: r.str16(), vehicle: r.str16(), segment: r.str16()}
	n := r.count(24)
	e.aps = r.take(24 * n)
	r.emptyList(flags, n)
	if r.err != nil {
		return reportEntry{}
	}
	e.data = start[:len(start)-len(r.b)]
	return e
}

// str16 reads a str16 field (a u16 length and that many bytes) without
// copying it.
func (r *reader) str16() []byte {
	return r.take(int(r.u16()))
}
