package wal

import "crowdwifi/internal/obs"

// Metrics instruments the durability layer: append volume, fsync counts,
// snapshot failures, and recovery work.
type Metrics struct {
	appends        *obs.Counter
	appendBytes    *obs.Counter
	fsyncs         *obs.Counter
	snapshotErrors *obs.Counter
	replayed       *obs.Counter
	truncated      *obs.Counter
	heals          *obs.Counter
}

// NewMetrics registers the WAL series on reg.
func NewMetrics(reg *obs.Registry) Metrics {
	return Metrics{
		appends:        reg.Counter("crowdwifi_wal_appends_total", "Records appended to the write-ahead log."),
		appendBytes:    reg.Counter("crowdwifi_wal_append_bytes_total", "Framed bytes appended to the write-ahead log."),
		fsyncs:         reg.Counter("crowdwifi_wal_fsyncs_total", "fsync calls issued by the write-ahead log."),
		snapshotErrors: reg.Counter("crowdwifi_wal_snapshot_errors_total", "Snapshot attempts that failed."),
		replayed:       reg.Counter("crowdwifi_wal_recovery_replayed_records_total", "Records replayed from the log during recovery."),
		truncated:      reg.Counter("crowdwifi_wal_recovery_truncated_bytes_total", "Torn-tail bytes truncated from the final segment during recovery."),
		heals:          reg.Counter("crowdwifi_wal_torn_tail_heals_total", "Failed appends whose partial or unacknowledged frame was truncated away in place."),
	}
}

// ObserveSnapshot records one snapshot attempt's outcome: a failed attempt
// counts, a written one has nothing to add.
func (m *Metrics) ObserveSnapshot(err error) {
	if err != nil {
		m.snapshotErrors.Inc()
	}
}
