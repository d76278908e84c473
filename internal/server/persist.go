package server

// Durable storage for the crowd-server: every mutating Store path appends a
// typed record to a write-ahead log before acknowledging, snapshots
// serialize the full state so old segments can be compacted, and startup
// recovery loads the latest snapshot then replays the log suffix. The
// records carry the request's idempotency key, so a recovered server replays
// previously-acknowledged responses verbatim — exactly-once survives the
// crash, not just the retry.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/wal"
)

// WAL record kinds, all in the binary codec (codec.go). Kinds 1 to 6 (the JSON
// records of builds before that codec) and 8 (the cycle record of builds
// before the capture record) are retired: never reuse them. A log that holds
// one is refused (errRetiredFormat).
const (
	recReports      byte = 7
	recPatternEntry byte = 9
	recLabelBlock   byte = 10
	recMove         byte = 11
	recDropBlock    byte = 12
	recCapture      byte = 13
)

// errRetiredFormat refuses a data directory written in a format this build no
// longer reads: a record of a retired kind, or a JSON snapshot.
var errRetiredFormat = errors.New("a format retired after build 6c672b1, the last that reads it: " +
	"run that build's crowdwifi-server on the directory and stop it cleanly (SIGTERM); " +
	"its final snapshot opens here")

// ErrDurability marks a mutation rejected because its write-ahead append
// failed; the in-memory state was not changed. HTTP handlers map it to 500
// (the client may retry) instead of 400 (the client must not).
var ErrDurability = errors.New("server: durable append failed")

// ErrRecordTooLarge marks a mutation whose WAL record would exceed
// wal.MaxRecordBytes. Unlike ErrDurability this is the request's fault, not
// the disk's: handlers map it to 413 and the store stays writable.
var ErrRecordTooLarge = errors.New("server: record exceeds the WAL record size limit")

// snapshotState is the full Store serialization: everything recovery needs
// to stand the server back up without the compacted log prefix. Its WriteTo
// writes it and decodeSnapshotPayload reads it.
type snapshotState struct {
	Patterns    []Pattern
	Labels      []Label
	Reports     reportLog
	Fused       map[string][]LookupResult
	Reliability map[string]float64
	Idem        []idemEntry
	Received    map[moveKey]moveCursor
	Dropped     map[string]int
}

// StorageOptions configures the crowd-server's durability subsystem. The
// zero value (empty Dir) keeps the store purely in-memory — exactly the
// pre-durability behaviour.
type StorageOptions struct {
	// Dir is the data directory holding WAL segments and snapshots; set from
	// crowdwifi-server's -data-dir.
	Dir string
	// Fsync selects when appends reach stable storage; the zero value, which
	// crowdwifi-server runs, is wal.SyncAlways (acknowledged ⇒ durable).
	// Tests and the bench's prebuild set wal.SyncOff.
	Fsync wal.SyncPolicy
	// Metrics instruments appends, fsyncs, rotations, snapshots, and
	// recovery; crowdwifi-server and the bench harness set it.
	Metrics wal.Metrics
	// FS overrides the write-side filesystem (nil selects the real one);
	// the chaos tests set it to inject disk faults.
	FS wal.FS
	// SegmentBytes sets the WAL segment rotation size (≤ 0 selects 8 MiB);
	// tests set it small to make logs of many segments.
	SegmentBytes int64
}

// snapshotKeep is how many snapshots compaction retains: the live one plus a
// fallback.
const snapshotKeep = 2

// RecoveryStats summarizes one boot's recovery work.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot seeded the state.
	SnapshotLoaded bool
	// SnapshotSeq is the log sequence the loaded snapshot covers.
	SnapshotSeq uint64
	// ReplayedRecords is how many WAL records were applied on top.
	ReplayedRecords int
	// TruncatedBytes is the torn tail recovery cut from the final segment.
	TruncatedBytes int64
	// LastSeq is the newest durable sequence after recovery.
	LastSeq uint64
	// Patterns, Labels, Reports, IdemKeys are the recovered volumes.
	Patterns, Labels, Reports, IdemKeys int
	// Duration is recovery's wall-clock time.
	Duration time.Duration
}

// OpenStore builds a Store backed by a write-ahead log and snapshots in
// opts.Dir: it loads the newest valid snapshot, replays the log suffix
// (tolerating a torn final record), and leaves the log attached so every
// later mutation is appended before it is acknowledged. An empty opts.Dir
// returns a plain in-memory store, and an empty data directory is a fresh
// boot that behaves exactly like one.
func OpenStore(mergeRadius float64, opts StorageOptions) (*Store, RecoveryStats, error) {
	s := NewStore(mergeRadius)
	var stats RecoveryStats
	if opts.Dir == "" {
		return s, stats, nil
	}
	start := time.Now()

	var log *wal.Log
	var truncated int64
	stats, err := s.loadDir(opts.Dir, func(after uint64, apply func(wal.Record) error) error {
		var info wal.OpenInfo
		var err error
		log, info, err = wal.Open(opts.Dir, wal.Options{
			SegmentBytes: opts.SegmentBytes,
			Sync:         opts.Fsync,
			NextSeq:      after + 1,
			Metrics:      opts.Metrics,
			FS:           opts.FS,
		})
		if err != nil {
			return fmt.Errorf("server: opening wal: %w", err)
		}
		truncated = info.TruncatedBytes
		if err := log.Replay(after, apply); err != nil {
			return fmt.Errorf("server: replaying wal: %w", err)
		}
		return nil
	})
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, stats, err
	}

	s.mu.Lock()
	s.log = log
	s.storage = opts
	s.snapped = stats.SnapshotSeq
	stats.TruncatedBytes = truncated
	stats.LastSeq = log.LastSeq()
	stats.Patterns = len(s.patterns)
	stats.Labels = len(s.labels)
	stats.Reports = s.reports.len()
	stats.IdemKeys = len(s.idem.snapshot())
	s.mu.Unlock()
	stats.Duration = time.Since(start)
	return s, stats, nil
}

// loadDir is recovery, for a store about to serve dir and for one that only
// reads it: install the newest valid snapshot, then apply the log records
// after it, which replay streams in order.
func (s *Store) loadDir(dir string, replay func(after uint64, apply func(wal.Record) error) error) (RecoveryStats, error) {
	var stats RecoveryStats
	seq, data, err := wal.LatestSnapshot(dir)
	if err != nil {
		return stats, fmt.Errorf("server: loading snapshot: %w", err)
	}
	str := newInterner()
	if data != nil {
		// The snapshot's bytes are recovery's own: its report log is kept in
		// them.
		state, err := decodeSnapshotPayload(data, str)
		if err == nil {
			err = s.restoreSnapshot(state)
		}
		if err != nil {
			return stats, fmt.Errorf("server: decoding snapshot %d: %w", seq, err)
		}
		stats.SnapshotLoaded = true
		stats.SnapshotSeq = seq
	}
	err = replay(seq, func(rec wal.Record) error {
		stats.ReplayedRecords++
		return s.applyRecord(rec, str)
	})
	if err == nil {
		err = s.settle()
	}
	return stats, err
}

// restoreSnapshot installs a decoded snapshot as the store's state, once the
// invariants every reader of that state relies on hold: pattern ids are
// positions, and labels are ±1 answers to patterns that exist, as are the
// ids a move landed its patterns at.
func (s *Store) restoreSnapshot(state snapshotState) error {
	for i, p := range state.Patterns {
		if p.ID != i {
			return fmt.Errorf("%w: pattern %d carries id %d", errCodec, i, p.ID)
		}
	}
	for _, l := range state.Labels {
		if !validLabel(l, len(state.Patterns)) {
			return fmt.Errorf("%w: label %+v among %d patterns", errCodec, l, len(state.Patterns))
		}
	}
	for k, c := range state.Received {
		if slices.ContainsFunc(c.patterns, func(id int) bool { return id >= len(state.Patterns) }) {
			return fmt.Errorf("%w: %v landed patterns past the %d stored", errCodec, k, len(state.Patterns))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.patterns = state.Patterns
	s.labels = state.Labels
	s.reports = state.Reports
	s.view.Store(newView(state.Fused, state.Reliability))
	s.idem.seed(state.Idem)
	s.received = state.Received
	s.dropped = state.Dropped
	return nil
}

// newView wraps decoded derived state, with empty maps for absent ones so
// lookups and reliability answer [] and {} as a fresh store does.
func newView(fused map[string][]LookupResult, reliability map[string]float64) *view {
	if fused == nil {
		fused = map[string][]LookupResult{}
	}
	if reliability == nil {
		reliability = map[string]float64{}
	}
	return &view{fused: fused, reliability: reliability}
}

// record is one mutation: the kind whose check and apply it takes, its
// encoded bytes, and the value they encode, which a live mutator already
// holds and replay decodes. Only the fields of its kind are set; moved and
// dropped are results. A report record's entries are applied from its bytes.
type record struct {
	kind     byte
	data     []byte
	key      string     // a pattern's or a label block's idempotency key
	pattern  Pattern    // recPatternEntry
	labels   []Label    // recLabelBlock
	keys     []string   // recReports: each entry's idempotency key
	move     *moveBlock // recMove
	segments []string   // recDropBlock
	counts   [3]int     // recCapture: the patterns, labels and reports read
	// view is a live recCapture's: the view its cycle computed. Replay
	// leaves it nil and computes it (settle).
	view *view

	moved   api.SliceStats // what a move block adds, as its check counts it
	dropped int            // the reports a drop removed
}

// pending is one caller's record in the commit queue, with its context and,
// once done, its outcome. The record is a copy, so the caller's stays local,
// and the entry is pooled, so a commit allocates nothing for its place in the
// queue.
type pending struct {
	ctx    context.Context
	rec    record
	err    error
	logged bool // its check passed and its run's append carried it
	done   bool // guarded by gmu
}

var pendingPool = sync.Pool{New: func() any { return new(pending) }}

// commit is the one write path, a group commit. Callers queue their records,
// and one at a time leads: it takes the queue and commits it in order, run by
// run, while the next callers queue behind it. A run is a stretch of report
// records, whose check reads nothing a report changes, or one record of any
// other kind, whose check reads the state the record before it leaves. Under
// one hold of mu a run is checked, logged with one fsync and applied with the
// functions replay applies the decoded records with, so the store is what its
// log says and a run is as atomic as one record. A refused record, or a move
// block that adds nothing, is neither logged nor applied. The caller has
// validated and encoded rec; what commit writes into the bytes is a pattern's
// id, its position. A failed append mutates nothing and fails every member of
// its run with ErrDurability, which the leader hands the registered sink
// (OnDurabilityError) once, outside mu.
func (s *Store) commit(ctx context.Context, rec *record) error {
	p := pendingPool.Get().(*pending)
	*p = pending{ctx: ctx, rec: *rec}
	s.gmu.Lock()
	s.queue = append(s.queue, p)
	for s.leading && !p.done {
		s.led.Wait()
	}
	if !p.done {
		group := s.queue
		s.queue, s.leading = s.spare[:0], true
		s.gmu.Unlock()
		for run := group; len(run) > 0; {
			n := 1
			for run[0].rec.kind == recReports && n < len(run) && run[n].rec.kind == recReports {
				n++
			}
			err := s.commitRun(run[:n])
			if sink, _ := s.durabilitySink.Load().(func(error)); err != nil && sink != nil {
				sink(err)
			}
			run = run[n:]
		}
		s.gmu.Lock()
		for _, q := range group {
			q.done = true
		}
		clear(group)
		s.spare, s.leading = group, false
		s.led.Broadcast()
	}
	s.gmu.Unlock()
	// p is the caller's again: the leader dropped its group in the gmu hold
	// that marked p done.
	*rec = p.rec
	err := p.err
	*p = pending{}
	pendingPool.Put(p)
	return err
}

// commitRun is commit's work on one run, under mu. It returns the run's
// ErrDurability, if its append failed.
func (s *Store) commitRun(run []*pending) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.entries[:0]
	for _, p := range run {
		rec := &p.rec
		if rec.kind == recPatternEntry {
			rec.pattern.ID = len(s.patterns)
			binary.LittleEndian.PutUint32(rec.data, uint32(rec.pattern.ID))
		}
		var adds bool
		if adds, p.err = s.checkLocked(rec); adds && p.err == nil {
			p.logged = true
			entries = append(entries, wal.Record{Kind: rec.kind, Data: rec.data})
		}
	}
	var err error
	if s.log != nil && len(entries) > 0 {
		if _, err = s.log.AppendGroup(run[0].ctx, entries); err != nil {
			err = fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}
	clear(entries)
	s.entries = entries[:0]
	for i, p := range run {
		switch {
		case !p.logged:
		case err != nil:
			p.err = err
		default:
			s.applyLocked(&p.rec)
			if i > 0 {
				trace.FromContext(p.ctx).AddEvent("logged in the wal.append of its run's first record")
			}
		}
	}
	return err
}

// applyRecord replays one WAL record: decoded, it goes through the check and
// the apply its live mutation went through — including the canonical
// response a keyed request was (or would have been) acknowledged with, so
// retries of acknowledged-but-crashed uploads dedupe instead of
// double-applying. str converts the names in a binary record (nil copies).
func (s *Store) applyRecord(wr wal.Record, str func([]byte) string) error {
	rec, err := decodeRecord(wr.Kind, wr.Data, str)
	if err == nil && rec.kind == recDropBlock {
		// The drop trims the view the last capture would have published.
		err = s.settle()
	}
	if err == nil {
		s.mu.Lock()
		var adds bool
		if adds, err = s.checkLocked(&rec); adds && err == nil {
			s.applyLocked(&rec)
		}
		s.mu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("server: record %d: %w", wr.Seq, err)
	}
	return nil
}

// decodeRecord decodes a logged record into the value its check and apply
// take.
func decodeRecord(kind byte, data []byte, str func([]byte) string) (record, error) {
	rec := record{kind: kind, data: data}
	var err error
	switch kind {
	case recPatternEntry:
		rec.key, rec.pattern, err = decodePatternRecord(data, str)
	case recLabelBlock:
		rec.key, rec.labels, err = decodeLabelsRecord(data, str)
	case recReports:
		rec.keys, err = decodeReportKeys(data)
	case recMove:
		rec.move = new(moveBlock)
		*rec.move, err = decodeMoveBlock(data, str)
	case recDropBlock:
		rec.segments, err = decodeSegments(data, str)
	case recCapture:
		rec.counts, err = decodeCapture(data)
	case 1, 2, 3, 4, 5, 6, 8:
		err = fmt.Errorf("unknown kind %d: %w", kind, errRetiredFormat)
	default:
		err = fmt.Errorf("unknown kind %d", kind)
	}
	return rec, err
}

// checkLocked is a record's one check against the state it would apply to,
// run by commit and by replay. It reports whether applying the record adds
// anything: a move block whose entries all landed before adds nothing. A
// record the log cannot hold is the request's fault, not the disk's: it
// must not flip the server read-only. Requires s.mu held.
func (s *Store) checkLocked(rec *record) (bool, error) {
	if 1+len(rec.data) > wal.MaxRecordBytes {
		return false, fmt.Errorf("%w: %d-byte record", ErrRecordTooLarge, len(rec.data))
	}
	switch rec.kind {
	case recPatternEntry:
		if rec.pattern.ID != len(s.patterns) {
			return false, fmt.Errorf("pattern id %d does not follow %d stored patterns", rec.pattern.ID, len(s.patterns))
		}
	case recLabelBlock:
		if i := slices.IndexFunc(rec.labels, func(l Label) bool { return !validLabel(l, len(s.patterns)) }); i >= 0 {
			return false, fmt.Errorf("server: label %+v is not a ±1 answer to one of %d tasks", rec.labels[i], len(s.patterns))
		}
	case recMove:
		var err error
		rec.moved, err = s.checkMoveLocked(rec.move)
		return rec.moved.Patterns+rec.moved.Reports+rec.moved.Labels > 0, err
	case recCapture:
		if have := [3]int{len(s.patterns), len(s.labels), s.reports.len()}; rec.counts[0] > have[0] || rec.counts[1] > have[1] || rec.counts[2] > have[2] {
			return false, fmt.Errorf("server: a cycle read %v patterns, labels and reports of %v stored", rec.counts, have)
		}
	}
	return true, nil
}

// validLabel reports whether l is a ±1 answer to one of n tasks.
func validLabel(l Label, n int) bool {
	return l.TaskID >= 0 && l.TaskID < n && (l.Value == 1 || l.Value == -1)
}

// applyLocked applies a record its check accepted; it cannot fail. Requires
// s.mu held.
func (s *Store) applyLocked(rec *record) {
	switch rec.kind {
	case recPatternEntry:
		s.patterns = append(s.patterns, rec.pattern)
		s.metrics.patterns.Inc()
		s.completeIdemLocked(rec.key, patternResponse(rec.pattern.ID))
	case recLabelBlock:
		s.labels = append(s.labels, rec.labels...)
		s.metrics.labels.Add(uint64(len(rec.labels)))
		s.completeIdemLocked(rec.key, labelsResponse(len(rec.labels)))
	case recReports:
		s.reports.grow(len(rec.data), len(rec.keys))
		r := reader{b: rec.data[4:]}
		for _, key := range rec.keys {
			s.reports.addStripped(r.report())
			s.completeIdemLocked(key, reportStored)
		}
		s.metrics.reports.Add(uint64(len(rec.keys)))
	case recMove:
		s.applyMoveLocked(rec.move, rec.moved)
	case recDropBlock:
		rec.dropped = s.dropSegmentsLocked(rec.segments)
	case recCapture:
		if rec.view == nil {
			s.replayed = &capture{
				patterns: s.patterns[:rec.counts[0]:rec.counts[0]],
				labels:   s.labels[:rec.counts[1]:rec.counts[1]],
				reports:  s.reports.prefix(rec.counts[2]),
			}
			return
		}
		s.view.Store(rec.view)
	}
}

// settle ends what replay stashed: it computes the view of the last capture
// record replayed and publishes it, as the cycle that logged the record did.
// Replay settles before a drop, which trims that view, and at the end of the
// log; a capture record in between supersedes the stash.
func (s *Store) settle() error {
	c := s.replayed
	if c == nil {
		return nil
	}
	s.replayed = nil
	v, _, err := s.cycleView(context.Background(), *c)
	if err != nil {
		return fmt.Errorf("server: recomputing a cycle's view: %w", err)
	}
	s.view.Store(v)
	return nil
}

// cannedResponse is the canonical acknowledgement for one mutation — the
// handlers send it and recovery reconstructs it, so a replayed idempotency
// key answers with the same bytes the original delivery did (or would have).
type cannedResponse struct {
	status int
	body   []byte
}

// The bodies are what encoding/json writes for {"id":N}, {"accepted":N} and
// {"status":"stored"}, newline included; a stored report's is one value that
// every report shares and nothing writes to.
func patternResponse(id int) cannedResponse {
	return cannedResponse{http.StatusCreated, append(strconv.AppendInt([]byte(`{"id":`), int64(id), 10), "}\n"...)}
}

func labelsResponse(n int) cannedResponse {
	return cannedResponse{http.StatusOK, append(strconv.AppendInt([]byte(`{"accepted":`), int64(n), 10), "}\n"...)}
}

var reportStored = cannedResponse{http.StatusCreated, []byte(`{"status":"stored"}` + "\n")}

// completeIdemLocked installs a keyed request's canonical response in the
// idempotency cache, atomically (under s.mu) with the mutation it
// acknowledges or replays, so a snapshot can never capture the mutation
// without its completion. Requires s.mu held.
func (s *Store) completeIdemLocked(key string, resp cannedResponse) {
	s.idem.complete(key, resp.status, resp.body)
}

// Snapshot serializes the full store state (patterns, labels, reports, fused
// map, reliability, completed idempotency keys) as of the newest durable
// sequence, installs it atomically, and compacts away the older snapshots
// beyond the ones kept and the WAL segments the oldest kept one covers. It
// returns the covered sequence. A no-op (0, nil) on an in-memory store, and
// one that writes nothing when no record came after the snapshot loaded at
// boot or last written.
func (s *Store) Snapshot() (uint64, error) {
	// One hold pairs the sequence with exactly the state its records built;
	// the encode then runs on the captured prefixes beside live traffic.
	s.mu.Lock()
	c := s.captureLocked()
	if c.log == nil || c.log.LastSeq() == s.snapped {
		s.mu.Unlock()
		return s.snapped, nil
	}
	state := snapshotState{
		Patterns:    c.patterns,
		Labels:      c.labels,
		Reports:     c.reports,
		Fused:       c.view.fused,
		Reliability: c.view.reliability,
		Idem:        s.idem.snapshot(),
		Received:    maps.Clone(s.received),
		Dropped:     maps.Clone(s.dropped),
	}
	seq := c.log.LastSeq()
	opts := s.storage
	s.mu.Unlock()

	if err := wal.WriteSnapshot(opts.Dir, seq, state); err != nil {
		opts.Metrics.ObserveSnapshot(err)
		return 0, err
	}
	s.mu.Lock()
	s.snapped = max(s.snapped, seq)
	s.mu.Unlock()
	// The log goes only through the oldest snapshot kept: the spare is a
	// fallback for a newest one that turns out unreadable, and a fallback
	// needs the records after it.
	oldest, err := wal.CompactSnapshots(opts.Dir, snapshotKeep)
	if err != nil {
		return seq, err
	}
	return seq, c.log.CompactThrough(oldest)
}

// WALStats reports the store's write-ahead-log footprint (segment count,
// active-segment bytes, last sequence), nil for an in-memory store. Served
// in the cluster digest so the router's /debug/cluster shows per-shard WAL
// depth.
func (s *Store) WALStats() *api.WALStatus {
	log := s.capture().log
	if log == nil {
		return nil
	}
	st := api.WALStatus(log.Stats())
	return &st
}

// OnDurabilityError registers fn to receive every durability fault: each
// failed append of a commit run, whichever path its records came from (a
// request, the aggregation cycle, a move, a drop), once per run. fn runs on
// the goroutine leading the commit queue, outside mu, so it must not mutate
// the store. At most one sink is held; later registrations replace earlier
// ones.
func (s *Store) OnDurabilityError(fn func(error)) {
	if fn != nil {
		s.durabilitySink.Store(fn)
	}
}

// ProbeDurability checks whether the disk accepts durable writes: it
// appends (and fsyncs) a throwaway probe record that replay ignores. The
// overload controller calls this while read-only to detect recovery. Always
// nil for an in-memory store — there is nothing to recover.
func (s *Store) ProbeDurability(ctx context.Context) error {
	log := s.capture().log
	if log == nil {
		return nil
	}
	return log.Probe(ctx)
}

// DropSegments removes the named segments' reports and fused results, WAL-
// logged so the drop survives a crash — the tail of a cross-shard move (the
// data now lives on its ring owner). Patterns and labels for those segments
// are deliberately left in place: pattern ids are dense per-shard (replay
// enforces id == len(patterns)), so removing mid-list patterns would corrupt
// replay. Stale patterns only cost a little shard-local task assignment and
// never reach lookup results, whose inputs (reports, fused) are removed
// here. Returns the number of reports dropped.
func (s *Store) DropSegments(ctx context.Context, segments []string) (int, error) {
	ctx, span := trace.StartChild(ctx, "store.drop_segments")
	defer span.End()
	span.SetAttr("segments", len(segments))
	// Wait out a cycle in flight: it captured the reports about to go and
	// would publish their fused results back over the drop.
	s.cycle.Lock()
	defer s.cycle.Unlock()
	rec := record{kind: recDropBlock, data: appendBlock(nil, segments, appendStr), segments: segments}
	if err := s.commit(ctx, &rec); err != nil {
		span.SetError(err)
		return 0, err
	}
	span.SetAttr("dropped_reports", rec.dropped)
	return rec.dropped, nil
}

// dropSegmentsLocked is a drop's apply: it removes reports and fused entries
// for the named segments, and counts the reports in s.dropped. Requires s.mu
// held. Both survivors are built fresh: a capture may still be reading the
// old reports, and a published view is never written.
func (s *Store) dropSegmentsLocked(segments []string) int {
	set := make(map[string]int, len(segments)) // segment → its place in counts
	for _, seg := range segments {
		if _, ok := set[seg]; !ok {
			set[seg] = len(set)
		}
	}
	counts := make([]int, len(set))
	var kept reportLog
	kept.grow(len(s.reports.buf), s.reports.len())
	for i := range s.reports.len() {
		e := s.reports.entry(i)
		if k, ok := set[string(parseEntry(e).segment)]; ok {
			counts[k]++
			continue
		}
		kept.add(e)
	}
	for seg, k := range set {
		if counts[k] > 0 {
			if s.dropped == nil {
				s.dropped = map[string]int{}
			}
			s.dropped[seg] += counts[k]
		}
	}
	dropped := s.reports.len() - kept.len()
	s.reports = kept
	old := s.view.Load()
	fused := maps.Clone(old.fused)
	for seg := range set {
		delete(fused, seg)
	}
	s.view.Store(&view{fused: fused, reliability: old.reliability})
	return dropped
}

// Close flushes and closes the attached log (no-op for an in-memory store).
// Call Snapshot first on a clean shutdown to make the next boot instant.
func (s *Store) Close() error {
	s.mu.Lock()
	log := s.log
	s.log = nil
	s.mu.Unlock()
	if log == nil {
		return nil
	}
	return log.Close()
}
