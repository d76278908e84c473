package wal

import (
	"os"
	"path/filepath"
	"sort"

	"crowdwifi/internal/frame"
)

// IterateDir streams every record with seq > after from the log directory,
// oldest first, without opening the log for writing. It is the read-only
// sibling of (*Log).Replay, built for the cluster's rebalance path: a
// departed shard's data directory can be sliced by segment ownership while
// the shard's process is gone, so nothing ever appends to — or truncates —
// the dead log.
//
// A torn tail in the final segment (the usual residue of a crash mid-append) is
// tolerated and simply ends the iteration; unlike Open, the file is left
// untouched. A sealed (non-final) segment whose records are all ≤ after is
// not read, as Replay reads none; framing damage inside any other is
// unrecoverable mid-log corruption and returns an error, exactly like
// Replay — and so is a log whose oldest segment starts after after+1. Probe
// records (KindProbe) are invisible, and record data is copied so fn may
// retain it.
func IterateDir(dir string, after uint64, fn func(Record) error) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var segs []segment
	for _, e := range entries {
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	if len(segs) > 0 && segs[0].first > after+1 {
		return gapError(dir, after, segs[0].first)
	}
	for i, seg := range segs {
		final := i == len(segs)-1
		if !final && segs[i+1].first-1 <= after {
			continue // all covered: compaction may have left it unsynced
		}
		buf, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		valid, n, err := frame.Walk(buf, func(idx int, kind byte, data []byte) error {
			seq := seg.first + uint64(idx)
			if seq <= after || kind == KindProbe {
				return nil
			}
			return fn(Record{Seq: seq, Kind: kind, Data: append([]byte(nil), data...)})
		})
		if err != nil {
			return err
		}
		if final {
			continue // a short final segment is a torn tail, not corruption
		}
		// A sealed segment must be fully framed and run exactly up to the
		// next segment's first sequence.
		if valid < int64(len(buf)) || seg.first+uint64(n) != segs[i+1].first {
			return corruptionError(seg.path, valid)
		}
	}
	return nil
}
