package wal

import (
	"errors"
	"fmt"

	"crowdwifi/internal/frame"
)

// MaxRecordBytes bounds one record's payload (kind + data): what the frame
// envelope (internal/frame, which the wire codec shares) will carry.
const MaxRecordBytes = frame.MaxPayload

// ErrTooLarge reports an append whose payload exceeds MaxRecordBytes.
var ErrTooLarge = errors.New("wal: record exceeds MaxRecordBytes")

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
