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
// Both walk the segments the same way (walk): probe records (KindProbe) are
// invisible, record data is copied so fn may retain it, and damage inside a
// sealed segment, or a log whose oldest segment starts after after+1, is an
// error. A torn tail in the final segment (the usual residue of a crash
// mid-append) is tolerated and simply ends the iteration; unlike Open, the
// file is left untouched.
func IterateDir(dir string, after uint64, fn func(Record) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	return walk(dir, segs, after, 0, fn)
}

// listSegments returns the segments in dir, sorted by first sequence.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// walk streams every record with seq > after from segs (sorted by first),
// oldest first. Probe records (KindProbe) are invisible, and record data is
// copied so fn may retain it.
//
// A segment ends where the next one starts, and the final one at next, the
// sequence after its last record, when the caller knows it (Replay, once Open
// has healed the tail); next 0 reads the final segment up to its first
// damaged frame. A segment whose records are all ≤ after is not read:
// compaction may have left it unsynced. A segment with a known end must be
// fully framed and run exactly up to it, and the oldest segment must hold
// record after+1; either failure is damage no truncation heals, and an error.
func walk(dir string, segs []segment, after, next uint64, fn func(Record) error) error {
	if len(segs) > 0 && segs[0].first > after+1 {
		return gapError(dir, after, segs[0].first)
	}
	for i, seg := range segs {
		end := next
		if i < len(segs)-1 {
			end = segs[i+1].first
		}
		if end != 0 && end-1 <= after {
			continue
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
		if end != 0 && (valid < int64(len(buf)) || seg.first+uint64(n) != end) {
			return corruptionError(seg.path, valid)
		}
	}
	return nil
}
