package wal

import (
	"time"

	"crowdwifi/internal/obs"
)

// Metrics instruments the durability layer: append volume, fsync and
// rotation counts, snapshot lifecycle, and recovery work. A nil *Metrics is
// a no-op everywhere it is consulted, so call sites need no conditionals.
type Metrics struct {
	appends        *obs.Counter
	appendBytes    *obs.Counter
	fsyncs         *obs.Counter
	rotations      *obs.Counter
	compacted      *obs.Counter
	snapshots      *obs.Counter
	snapshotErrors *obs.Counter
	snapshotDur    *obs.Histogram
	replayed       *obs.Counter
	truncated      *obs.Counter
	heals          *obs.Counter
}

// NewMetrics registers the WAL series on reg. Returns nil for a nil
// registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		appends:        reg.Counter("crowdwifi_wal_appends_total", "Records appended to the write-ahead log."),
		appendBytes:    reg.Counter("crowdwifi_wal_append_bytes_total", "Framed bytes appended to the write-ahead log."),
		fsyncs:         reg.Counter("crowdwifi_wal_fsyncs_total", "fsync calls issued by the write-ahead log."),
		rotations:      reg.Counter("crowdwifi_wal_segment_rotations_total", "Segment rotations (a sealed segment plus a fresh active one)."),
		compacted:      reg.Counter("crowdwifi_wal_segments_compacted_total", "Sealed segments removed after a covering snapshot."),
		snapshots:      reg.Counter("crowdwifi_wal_snapshots_total", "Snapshots written and atomically installed."),
		snapshotErrors: reg.Counter("crowdwifi_wal_snapshot_errors_total", "Snapshot attempts that failed."),
		snapshotDur:    reg.Histogram("crowdwifi_wal_snapshot_duration_seconds", "Wall-clock time to serialize, write, and install one snapshot.", nil),
		replayed:       reg.Counter("crowdwifi_wal_recovery_replayed_records_total", "Records replayed from the log during recovery."),
		truncated:      reg.Counter("crowdwifi_wal_recovery_truncated_bytes_total", "Torn-tail bytes truncated from the final segment during recovery."),
		heals:          reg.Counter("crowdwifi_wal_torn_tail_heals_total", "Failed appends whose partial or unacknowledged frame was truncated away in place."),
	}
}

func (m *Metrics) observeAppend(bytes int64) {
	if m == nil {
		return
	}
	m.appends.Inc()
	m.appendBytes.Add(uint64(bytes))
}

func (m *Metrics) incFsyncs() {
	if m != nil {
		m.fsyncs.Inc()
	}
}

func (m *Metrics) incRotations() {
	if m != nil {
		m.rotations.Inc()
	}
}

func (m *Metrics) addCompacted(n int) {
	if m != nil {
		m.compacted.Add(uint64(n))
	}
}

func (m *Metrics) incReplayed() {
	if m != nil {
		m.replayed.Inc()
	}
}

func (m *Metrics) recoveryTruncated(bytes int64) {
	if m != nil {
		m.truncated.Add(uint64(bytes))
	}
}

func (m *Metrics) incHeals() {
	if m != nil {
		m.heals.Inc()
	}
}

// ObserveSnapshot records one snapshot attempt's outcome; d spans encoding
// the payload as well as writing and installing it, which now stream
// together.
func (m *Metrics) ObserveSnapshot(d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.snapshotErrors.Inc()
		return
	}
	m.snapshots.Inc()
	m.snapshotDur.Observe(d.Seconds())
}
