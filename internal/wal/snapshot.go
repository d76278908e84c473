package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot files hold one serialized copy of the application state as of a
// log sequence number, named snap-<seq>.snap. The file is written to a .tmp
// sibling, fsynced, and atomically renamed into place, so a snapshot either
// exists whole or not at all; the directory is fsynced after the rename.
// Layout: an 8-byte magic, a u32 payload length, a u32 CRC32-C, then the
// payload.
const (
	snapshotMagic  = "CWSNAP\x01\n"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".snap"
	// maxSnapshotBytes bounds a snapshot payload; like MaxRecordBytes it
	// protects recovery from a corrupted length field.
	maxSnapshotBytes = 1 << 31
)

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapshotPrefix, seq, snapshotSuffix)
}

func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotSuffix), 10, 64)
	return seq, err == nil
}

// castagnoli is the CRC32-C table snapshot files are checksummed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot atomically installs what payload writes as the snapshot
// covering every log record with sequence ≤ seq. The payload is streamed to
// the file, counted and checksummed on its way, and the header's length and
// CRC are written in place once it is all out.
func WriteSnapshot(dir string, seq uint64, payload io.WriterTo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, snapshotName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(f, payload); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// writeSnapshotFile writes a whole snapshot file to f and syncs it.
func writeSnapshotFile(f *os.File, payload io.WriterTo) error {
	var hdr [len(snapshotMagic) + 8]byte
	copy(hdr[:], snapshotMagic)
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	w := payloadWriter{w: f}
	if _, err := payload.WriteTo(&w); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[len(snapshotMagic):], uint32(w.n))
	binary.LittleEndian.PutUint32(hdr[len(snapshotMagic)+4:], w.crc)
	if _, err := f.WriteAt(hdr[len(snapshotMagic):], int64(len(snapshotMagic))); err != nil {
		return err
	}
	return f.Sync()
}

// payloadWriter passes a snapshot payload on to w, counting its bytes and
// checksumming them as they go.
type payloadWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (p *payloadWriter) Write(b []byte) (int, error) {
	if p.n+int64(len(b)) > maxSnapshotBytes {
		return 0, fmt.Errorf("wal: snapshot exceeds the %d-byte limit", maxSnapshotBytes)
	}
	n, err := p.w.Write(b)
	p.crc = crc32.Update(p.crc, castagnoli, b[:n])
	p.n += int64(n)
	return n, err
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < len(snapshotMagic)+8 || string(buf[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("wal: snapshot %s has a bad header", path)
	}
	body := buf[len(snapshotMagic):]
	length := int64(binary.LittleEndian.Uint32(body[0:4]))
	if length > maxSnapshotBytes || int64(len(body)-8) != length {
		return nil, fmt.Errorf("wal: snapshot %s has a bad length", path)
	}
	data := body[8:]
	if crc32.Checksum(data, castagnoli) != binary.LittleEndian.Uint32(body[4:8]) {
		return nil, fmt.Errorf("wal: snapshot %s failed its checksum", path)
	}
	return data, nil
}

// snapshotFiles lists snapshot paths in dir, newest first.
func snapshotFiles(dir string) []segment {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var snaps []segment
	for _, e := range entries {
		if seq, ok := parseSnapshotName(e.Name()); ok {
			snaps = append(snaps, segment{path: filepath.Join(dir, e.Name()), first: seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].first > snaps[j].first })
	return snaps
}

// LatestSnapshot returns the newest valid snapshot in dir and the sequence
// it covers. A damaged snapshot is skipped in favour of an older valid one.
// (0, nil, nil) means no snapshot — a fresh boot.
func LatestSnapshot(dir string) (uint64, []byte, error) {
	for _, s := range snapshotFiles(dir) {
		data, err := readSnapshot(s.path)
		if err != nil {
			continue
		}
		return s.first, data, nil
	}
	return 0, nil, nil
}

// CompactSnapshots removes all but the newest keep snapshots and returns the
// sequence the oldest one kept covers (0 when there is none). Keeping one
// spare means a snapshot that turns out unreadable still has a fallback — as
// long as the log is compacted only through the returned sequence, so the
// fallback has its suffix to replay.
func CompactSnapshots(dir string, keep int) (oldest uint64, err error) {
	if keep < 1 {
		keep = 1
	}
	snaps := snapshotFiles(dir)
	if len(snaps) == 0 {
		return 0, nil
	}
	if len(snaps) <= keep {
		return snaps[len(snaps)-1].first, nil
	}
	for _, s := range snaps[keep:] {
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
	}
	return snaps[keep-1].first, syncDir(dir)
}
