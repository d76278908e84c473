package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/frame"
	"crowdwifi/internal/wal"
)

// postFrame sends a report frame to route through h under an Idempotency-Key
// header (none if key is empty) and returns the recorded answer.
func postFrame(h http.Handler, route, key string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
	req.Header.Set("Content-Type", FrameContentType)
	if key != "" {
		req.Header.Set(IdempotencyKeyHeader, key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// A single frame upload is logged under its Idempotency-Key header, not the
// key its frame carries: a retry under the header replays, and an upload
// under the frame's key is a new report, live and after a reopen.
func TestFrameUploadLogsItsHeaderKey(t *testing.T) {
	body, err := EncodeReportFrame(nil, "f", batchReport(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, reopen := range []bool{false, true} {
		t.Run(fmt.Sprintf("reopen=%v", reopen), func(t *testing.T) {
			dir := t.TempDir()
			store, _ := openDurable(t, dir)
			defer func() { store.Close() }()
			if rec := postFrame(New(store), api.RouteReports, "h", body); rec.Code != http.StatusCreated {
				t.Fatalf("first upload: %d %s", rec.Code, rec.Body)
			}
			if reopen {
				store.Close()
				store, _ = openDurable(t, dir)
			}
			srv := New(store)
			rec := postFrame(srv, api.RouteReports, "h", body)
			if rec.Code != http.StatusCreated || rec.Header().Get("Idempotent-Replay") != "true" {
				t.Fatalf("retry under h: %d, replay %q", rec.Code, rec.Header().Get("Idempotent-Replay"))
			}
			rec = postFrame(srv, api.RouteReports, "f", body)
			if rec.Code != http.StatusCreated || rec.Header().Get("Idempotent-Replay") != "" {
				t.Fatalf("upload under f: %d, replay %q", rec.Code, rec.Header().Get("Idempotent-Replay"))
			}
			if _, _, n := store.Counts(); n != 2 {
				t.Fatalf("%d reports stored, want 2", n)
			}
		})
	}
}

// refBatch is the batch route as it answered before it logged frames as they
// arrived: decode every frame, then answer a missing vehicle or segment, a key
// seen before (completed holds the keys already stored) and a non-finite AP,
// in that order, and log the rest as one record of appendReportEntry entries.
func refBatch(t *testing.T, body []byte, completed map[string]bool) (status, record []byte) {
	frames, err := api.SplitReportFrames(body)
	if err != nil {
		return nil, nil
	}
	results := make([]BatchEntryStatus, len(frames))
	claimed := map[string]bool{}
	var entries [][]byte
	for i, fr := range frames {
		results[i].Key = fr.Key
		switch {
		case fr.Report.Vehicle == "" || fr.Report.Segment == "":
			results[i].Status, results[i].Error = http.StatusBadRequest, "report needs vehicle and segment"
			continue
		case fr.Key != "" && completed[fr.Key]:
			results[i].Status = http.StatusCreated
			continue
		case fr.Key != "" && claimed[fr.Key]:
			results[i].Status, results[i].Error = http.StatusServiceUnavailable, "duplicate request still in flight"
			continue
		}
		claimed[fr.Key] = true
		if err := checkAPs(fr.Report.APs); err != nil {
			results[i].Status, results[i].Error = http.StatusBadRequest, err.Error()
			continue
		}
		entry, err := appendReportEntry(nil, fr.Key, fr.Report)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry)
		results[i].Status = http.StatusCreated
	}
	if status, err = api.EncodeBatchStatusFrame(results); err != nil {
		t.Fatal(err)
	}
	if len(entries) > 0 {
		record = appendBlock(nil, entries, appendEntry)
	}
	return status, record
}

// FuzzReportFramesLoggedAsSent holds the batch route to refBatch: for any
// body, the status frame it answers and the log record it appends are the
// reference's, byte for byte. A body the reference cannot decode is a 400
// that logs nothing.
func FuzzReportFramesLoggedAsSent(f *testing.F) {
	frameOf := func(key string, rep Report) []byte {
		b, err := EncodeReportFrame(nil, key, rep)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := batchReport(1)
	withAP := func(ap APReport) Report {
		return Report{Vehicle: "v", Segment: "s", APs: []APReport{{X: 1, Y: 2, Credit: 3}, ap}}
	}
	f.Add(frameOf("nan", withAP(APReport{X: math.NaN(), Y: 1, Credit: 1})))
	f.Add(bytes.Join([][]byte{
		frameOf("inf", withAP(APReport{X: 1, Y: math.Inf(1), Credit: 1})),
		frameOf("-inf", withAP(APReport{X: 1, Y: 1, Credit: math.Inf(-1)})),
	}, nil))
	f.Add(frameOf("nov", Report{Segment: "s", APs: good.APs}))
	f.Add(frameOf("noseg", Report{Vehicle: "v", APs: good.APs}))
	f.Add(frameOf("zero", Report{Vehicle: "v", Segment: "s"}))
	f.Add(append(frameOf("trail", good), 0))
	f.Add(append(frameOf("k", good), frame.Append(nil, 0x02, []byte{0, 0, 0, 0})...))
	f.Add(bytes.Join([][]byte{frameOf("rep", good), frameOf("", good), frameOf("rep", batchReport(2))}, nil))
	f.Add(bytes.Join([][]byte{frameOf("done", good), frameOf("new", good)}, nil))
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		store, _, err := OpenStore(10, StorageOptions{Dir: dir, Fsync: wal.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if err := store.AddReportKeyed(context.Background(), "done", good); err != nil {
			t.Fatal(err)
		}
		wantStatus, wantRecord := refBatch(t, body, map[string]bool{"done": true})
		rec := postFrame(New(store), api.RouteReportsBatch, "", bytes.Clone(body))
		if wantStatus == nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body: status %d %s, want 400", rec.Code, rec.Body)
			}
		} else if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantStatus) {
			t.Fatalf("status frame %d %x, want %x", rec.Code, rec.Body.Bytes(), wantStatus)
		}
		var records [][]byte
		if err := wal.IterateDir(dir, 1, func(r wal.Record) error {
			if r.Kind != recReports {
				t.Fatalf("record %d of kind %d", r.Seq, r.Kind)
			}
			records = append(records, bytes.Clone(r.Data))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		switch {
		case wantRecord == nil && len(records) != 0:
			t.Fatalf("logged %d records, want none", len(records))
		case wantRecord != nil && (len(records) != 1 || !bytes.Equal(records[0], wantRecord)):
			t.Fatalf("logged %x, want one record %x", records, wantRecord)
		}
	})
}
