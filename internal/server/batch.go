package server

// Batch ingest: POST /v1/reports/batch accepts many reports in one
// round-trip — the vehicle outbox's drain path — with a per-entry
// idempotency key and a per-entry status vector in the response. Only
// machines call it, so it speaks frames alone: the body is a concatenation of
// binary report frames (Content-Type: application/x-crowdwifi-frame), any
// other body answers 415, and the response is a single batch-status frame.
//
// Partial failure is the normal case, not an error: the response is always
// 200 with one status per entry in request order. An entry's status is the
// HTTP status it would have received as a single upload (201 stored, 2xx
// replay, 400 invalid, 413 oversized record, 421 misdirected + owner, 503
// in-flight duplicate, 500 durability fault), so the client's existing
// terminal-vs-transient classification applies entry by entry.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"

	"crowdwifi/internal/api"
	"crowdwifi/internal/frame"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/wal"
)

// defaultBatchChunkBytes bounds the encoded entries packed into one WAL
// record on the batch append path. A full batch framed as a single record
// could exceed wal.MaxRecordBytes and poison recovery, so batches are
// chunked below the cap with headroom for the record envelope.
const defaultBatchChunkBytes = wal.MaxRecordBytes - (64 << 10)

// BatchItem pairs one batch entry's report with its idempotency key on the
// Store's batch append path. A report that arrived as a frame comes as entry,
// the bytes it is logged as, and Report holds at most its names.
type BatchItem struct {
	Key    string
	Report Report
	entry  []byte
}

// errUnnamed refuses a report without a vehicle or a segment.
var errUnnamed = errors.New("report needs vehicle and segment")

// frameEntries scans a body of report frames (api.ScanReportFrames) into the
// entries the store logs, in place: a frame's payload with its kind byte set
// to flags 0 (a frame's AP count of 0 reads as no list) is a report entry.
func frameEntries(body []byte) (entries [][]byte, err error) {
	err = api.ScanReportFrames(body, func(_, _, raw []byte) {
		raw[frame.HeaderSize] = 0
		entries = append(entries, raw[frame.HeaderSize:])
	})
	return entries, err
}

// readBody reads the request body whole under the route's limit (see
// api.ReadBody), mapping an over-limit body to a 413 with a JSON error body —
// the same contract decodeBody gives JSON routes, for bodies the handler must
// parse itself.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := api.ReadBody(w, r, limit)
	if err != nil {
		s.bodyError(w, err)
	}
	return body, err == nil
}

func (s *Server) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	if !api.RequireFrames(w, r, "a batch") {
		return
	}
	body, ok := s.readBody(w, r, api.DefaultBatchMaxBodyBytes)
	if !ok {
		return
	}
	entries, err := frameEntries(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	status, err := api.EncodeBatchStatusFrame(s.processBatch(r.Context(), entries))
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	writeFrame(w, status)
}

// processBatch answers a report without a vehicle or a segment, then one
// another shard owns, then a key seen before, and runs the rest through the
// store's chunked durable append. The status vector is in entry order.
func (s *Server) processBatch(ctx context.Context, entries [][]byte) []BatchEntryStatus {
	ctx, span := trace.StartChild(ctx, "server.batch")
	defer span.End()
	span.SetAttr("entries", len(entries))
	results := make([]BatchEntryStatus, len(entries))
	var items []BatchItem
	var itemIdx []int
	for i, entry := range entries {
		e := parseEntry(entry)
		key := string(e.key)
		results[i].Key = key
		// addReports runs the rest of check, the non-finite scan, once.
		if !e.named() {
			results[i].Status = http.StatusBadRequest
			results[i].Error = errUnnamed.Error()
			continue
		}
		if owner, mis := s.misdirected(string(e.segment)); mis {
			results[i].Status = http.StatusMisdirectedRequest
			results[i].Owner = owner
			results[i].Error = fmt.Sprintf("segment %q is owned by shard %q", e.segment, owner)
			continue
		}
		if key != "" {
			seen, rec := s.store.idem.begin(key)
			if seen {
				if rec == nil {
					// A first delivery of this key is still in flight
					// elsewhere; the entry cannot be answered yet.
					results[i].Status = http.StatusServiceUnavailable
					results[i].Error = "duplicate request still in flight"
					continue
				}
				s.metrics.deduped.Inc()
				results[i].Status = rec.status
				continue
			}
		}
		items = append(items, BatchItem{Key: key, entry: entry})
		itemIdx = append(itemIdx, i)
	}
	errs := s.store.AddReportBatch(ctx, items)
	stored := 0
	for j, idx := range itemIdx {
		err := errs[j]
		if err == nil {
			results[idx].Status = http.StatusCreated
			stored++
			continue
		}
		results[idx].Status = s.mutationStatus(err)
		results[idx].Error = err.Error()
		// Release the claimed key so the client's retry is not stuck behind
		// a phantom in-flight first delivery.
		s.store.idem.release(items[j].Key)
	}
	// Every entry a durability fault failed carries that one fault.
	if i := slices.IndexFunc(errs, func(err error) bool { return errors.Is(err, ErrDurability) }); i >= 0 {
		s.log.Error("durable append failed", "err", errs[i])
	}
	span.SetAttr("stored", stored)
	return results
}

// AddReportBatch appends many reports with write-ahead durability semantics,
// chunked so no single WAL record exceeds the log's size cap, and returns
// one error slot per item (nil = stored). Chunks are atomic: a chunk's
// entries mutate state and complete their idempotency keys together after
// the chunk's record is durable; a durability fault fails the faulted chunk
// and everything after it while earlier chunks stay acknowledged. An item
// whose own record cannot fit any chunk fails alone with ErrRecordTooLarge.
func (s *Store) AddReportBatch(ctx context.Context, items []BatchItem) []error {
	if len(items) == 0 {
		return nil
	}
	ctx, span := trace.StartChild(ctx, "store.add_report_batch")
	defer span.End()
	span.SetAttr("entries", len(items))
	errs, chunks, fault := s.addReports(ctx, items)
	span.SetError(fault)
	span.SetAttr("chunks", chunks)
	return errs
}

// chunkBudget is how many bytes of entries one record of a batch, or one
// block of a move, takes.
func (s *Store) chunkBudget() int {
	if s.batchChunk > 0 {
		return s.batchChunk
	}
	return defaultBatchChunkBytes
}

// addReports is the one report write path: encode every item that is not an
// entry yet, check it, and pack the accepted ones, each under its item's key,
// into report blocks of at most the chunk budget, all of it before the lock is
// taken, then commit the blocks in order. It returns one error slot per
// item, the number of chunks logged, and the log's refusal if there was one.
func (s *Store) addReports(ctx context.Context, items []BatchItem) (errs []error, logged int, fault error) {
	errs = make([]error, len(items))
	budget := s.chunkBudget()
	// A chunk is one record's data and how many of the accepted items, in
	// order, it holds.
	type chunk struct {
		data []byte
		n    int
	}
	var chunks []chunk
	p := packer{limit: budget}
	p.emit = func(block []byte, n int) error {
		chunks = append(chunks, chunk{block, n})
		p.release()
		return nil
	}
	for _, it := range items {
		p.pending += max(len(it.entry), reportEntrySize(it.Key, it.Report)) // its entry, or its report encoded
	}
	keys := make([]string, 0, len(items)) // of the accepted items, in order
	var encoded []byte
	for i, it := range items {
		entry := it.entry
		if entry == nil {
			if encoded, errs[i] = appendReportEntry(encoded[:0], it.Key, it.Report); errs[i] != nil {
				continue
			}
			entry = encoded
		}
		e := parseEntry(entry)
		if err := e.check(); err != nil {
			errs[i] = fmt.Errorf("server: %w", err)
			continue
		}
		if rest := entry[3+len(e.key):]; string(e.key) != it.Key {
			if entry, errs[i] = api.AppendWireString(append(make([]byte, 0, 3+len(it.Key)+len(rest)), entry[0]), it.Key); errs[i] != nil {
				continue
			}
			entry = append(entry, rest...)
		}
		if 4+len(entry) > budget {
			errs[i] = fmt.Errorf("%w: %d-byte report record", ErrRecordTooLarge, len(entry))
			continue
		}
		p.add(entry)
		keys = append(keys, it.Key)
	}
	p.flush()
	applied := 0
	for _, c := range chunks {
		rec := record{kind: recReports, data: c.data, keys: keys[applied : applied+c.n]}
		// One faulted chunk fails every entry from here on: the log refused
		// a write, so later chunks must not be attempted.
		if fault = s.commit(ctx, &rec); fault != nil {
			break
		}
		applied += c.n
		logged++
	}
	if fault != nil {
		n := 0
		for i := range errs {
			if errs[i] == nil {
				if n >= applied {
					errs[i] = fault
				}
				n++
			}
		}
	}
	return errs, logged, fault
}
