package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/wal"
)

func batchReport(i int) Report {
	return Report{
		Vehicle: fmt.Sprintf("bv-%d", i),
		Segment: fmt.Sprintf("bseg-%d", i),
		APs:     []APReport{{X: float64(i), Y: float64(i) + 0.5, Credit: 1}},
	}
}

// postBatch posts items as a batch of report frames that asks for a JSON
// answer: the answer is a status frame whatever the client asks for. It
// returns the HTTP status and, on a 200, the decoded status vector.
func postBatch(url string, items []BatchItem) (int, []BatchEntryStatus, error) {
	var body []byte
	for _, it := range items {
		var err error
		if body, err = EncodeReportFrame(body, it.Key, it.Report); err != nil {
			return 0, nil, err
		}
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/reports/batch", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", FrameContentType)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, err
	}
	if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
		return resp.StatusCode, nil, fmt.Errorf("batch answered Content-Type %q, want %q", ct, FrameContentType)
	}
	results, err := DecodeBatchStatusFrame(raw)
	return resp.StatusCode, results, err
}

// mustPostBatch is postBatch for the test goroutine: a transport or decode
// error fails the test.
func mustPostBatch(t *testing.T, url string, items []BatchItem) (int, []BatchEntryStatus) {
	t.Helper()
	status, results, err := postBatch(url, items)
	if err != nil {
		t.Fatal(err)
	}
	return status, results
}

func TestBatchHappyPathAndPerEntryReplay(t *testing.T) {
	store, ts := newTestServer(t)
	var items []BatchItem
	for i := 0; i < 3; i++ {
		items = append(items, BatchItem{Key: fmt.Sprintf("bk-%d", i), Report: batchReport(i)})
	}
	// The same entries as JSON are refused whole, and nothing is stored: a
	// batch is frames only.
	buf, err := json.Marshal(map[string]any{"entries": items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/reports/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON batch status = %d, want 415", resp.StatusCode)
	}
	if n := store.reports.len(); n != 0 {
		t.Fatalf("a refused JSON batch stored %d reports", n)
	}

	status, out := mustPostBatch(t, ts.URL, items)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(out) != 3 {
		t.Fatalf("results = %d, want 3", len(out))
	}
	for i, st := range out {
		if st.Key != items[i].Key {
			t.Errorf("result %d key = %q, want %q (request order)", i, st.Key, items[i].Key)
		}
		if st.Status != http.StatusCreated {
			t.Errorf("result %d status = %d, want 201", i, st.Status)
		}
	}
	if n := store.reports.len(); n != 3 {
		t.Fatalf("stored reports = %d, want 3", n)
	}

	// The whole batch replayed: every entry dedupes by its own key, nothing
	// is stored twice, and the replayed statuses are still 2xx acks.
	status, out = mustPostBatch(t, ts.URL, items)
	if status != http.StatusOK {
		t.Fatalf("replay status = %d, want 200", status)
	}
	for i, st := range out {
		if !st.Ok() {
			t.Errorf("replayed result %d status = %d, want 2xx", i, st.Status)
		}
	}
	if n := store.reports.len(); n != 3 {
		t.Fatalf("stored reports after replay = %d, want 3", n)
	}
}

func TestBatchMixedValidityKeepsOrder(t *testing.T) {
	store, ts := newTestServer(t)
	status, out := mustPostBatch(t, ts.URL, []BatchItem{
		{Key: "mx-0", Report: batchReport(0)},
		{Key: "mx-1", Report: Report{Segment: "s"}}, // no vehicle → 400
		{Key: "mx-2", Report: batchReport(2)},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (partial failure is per entry)", status)
	}
	want := []int{201, 400, 201}
	for i, st := range out {
		if st.Status != want[i] {
			t.Errorf("result %d status = %d, want %d", i, st.Status, want[i])
		}
	}
	if out[1].Error == "" {
		t.Error("invalid entry carries no error text")
	}
	if n := store.reports.len(); n != 2 {
		t.Fatalf("stored reports = %d, want 2", n)
	}
	// The rejected entry's key must not be poisoned: retrying it alone with
	// a fixed report stores it.
	status2, out2 := mustPostBatch(t, ts.URL, []BatchItem{{Key: "mx-1", Report: batchReport(1)}})
	if status2 != http.StatusOK || out2[0].Status != http.StatusCreated {
		t.Fatalf("retry of failed entry: status %d, entry %+v", status2, out2)
	}
}

func TestBatchBinaryRoundTrip(t *testing.T) {
	store, ts := newTestServer(t)
	var body []byte
	var err error
	keys := []string{"bin-0", "bin-1", "bin-2", "bin-3"}
	for i, k := range keys {
		if body, err = EncodeReportFrame(body, k, batchReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/reports/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", FrameContentType)
	req.Header.Set("Accept", FrameContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, FrameContentType)
	}
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeBatchStatusFrame(respBody)
	if err != nil {
		t.Fatalf("DecodeBatchStatusFrame: %v", err)
	}
	if len(results) != len(keys) {
		t.Fatalf("results = %d, want %d", len(results), len(keys))
	}
	for i, st := range results {
		if st.Key != keys[i] || st.Status != http.StatusCreated {
			t.Errorf("result %d = %+v, want key %q status 201", i, st, keys[i])
		}
	}
	if n := store.reports.len(); n != len(keys) {
		t.Fatalf("stored reports = %d, want %d", n, len(keys))
	}
}

// TestBodyLimitBoundaries drives both upload routes at their per-route body
// caps: a body at the limit is parsed (however badly), one byte over is 413
// with a JSON error body.
func TestBodyLimitBoundaries(t *testing.T) {
	store := NewStore(10)
	ts := httptest.NewServer(New(store))
	t.Cleanup(ts.Close)

	// pad returns a syntactically valid JSON body of exactly n bytes.
	pad := func(v any, n int) []byte {
		base, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fill := n - len(base) - len(`{"pad":"","x":}`)
		if fill < 0 {
			t.Fatalf("base body already %d bytes", len(base))
		}
		b := []byte(`{"pad":"` + strings.Repeat("p", fill) + `","x":`)
		b = append(b, base...)
		b = append(b, '}')
		if len(b) != n {
			t.Fatalf("padded body is %d bytes, want %d", len(b), n)
		}
		return b
	}

	for _, tc := range []struct {
		name        string
		path        string
		contentType string
		limit       int
	}{
		{"reports", "/v1/reports", "application/json", api.DefaultMaxBodyBytes},
		{"batch", "/v1/reports/batch", FrameContentType, api.DefaultBatchMaxBodyBytes},
	} {
		for _, sz := range []struct {
			bytes    int
			tooLarge bool
		}{
			{tc.limit - 1, false},
			{tc.limit, false},
			{tc.limit + 1, true},
		} {
			body := pad(map[string]string{}, sz.bytes)
			resp, err := http.Post(ts.URL+tc.path, tc.contentType, bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s @ %d: %v", tc.name, sz.bytes, err)
			}
			respBody, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if sz.tooLarge {
				if resp.StatusCode != http.StatusRequestEntityTooLarge {
					t.Errorf("%s @ %d: status = %d, want 413", tc.name, sz.bytes, resp.StatusCode)
				}
				var e map[string]string
				if err := json.Unmarshal(respBody, &e); err != nil || e["error"] == "" {
					t.Errorf("%s @ %d: 413 body %q is not a JSON error", tc.name, sz.bytes, respBody)
				}
			} else if resp.StatusCode == http.StatusRequestEntityTooLarge {
				t.Errorf("%s @ %d: status 413 for an at-limit body", tc.name, sz.bytes)
			}
		}
	}
}

// TestBatchChunkedAppendRecovers lowers the chunk budget so one batch spans
// several WAL records, then reopens the store: every report and every
// per-entry idempotency key must survive recovery.
func TestBatchChunkedAppendRecovers(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(10, StorageOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store.batchChunk = 512 // a few entries per chunk

	const n = 12
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Key: fmt.Sprintf("ck-%d", i), Report: batchReport(i)}
	}
	for i, err := range store.AddReportBatch(context.Background(), items) {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	if store.reports.len() != n {
		t.Fatalf("stored reports = %d, want %d", store.reports.len(), n)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, stats, err := OpenStore(10, StorageOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if stats.Reports != n {
		t.Fatalf("recovered reports = %d, want %d", stats.Reports, n)
	}
	if stats.IdemKeys != n {
		t.Fatalf("recovered idempotency keys = %d, want %d", stats.IdemKeys, n)
	}
	// A replayed delivery of a batched entry answers from the recovered
	// idempotency cache instead of storing again.
	ts := httptest.NewServer(New(reopened))
	defer ts.Close()
	resp := postKeyed(t, ts.URL+"/v1/reports", "ck-3", batchReport(3))
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("Idempotent-Replay") != "true" {
		t.Fatalf("replay after recovery: status %d, replay header %q",
			resp.StatusCode, resp.Header.Get("Idempotent-Replay"))
	}
	if reopened.reports.len() != n {
		t.Fatalf("reports after replay = %d, want %d", reopened.reports.len(), n)
	}
}

// writesLeft is a filesystem whose writes fail once n of them went through.
type writesLeft struct {
	wal.OSFS
	n *int
}

func (fs writesLeft) Create(path string) (wal.File, error) {
	f, err := fs.OSFS.Create(path)
	return countedFile{f, fs.n}, err
}

func (fs writesLeft) OpenAppend(path string) (wal.File, error) {
	f, err := fs.OSFS.OpenAppend(path)
	return countedFile{f, fs.n}, err
}

type countedFile struct {
	wal.File
	n *int
}

func (f countedFile) Write(p []byte) (int, error) {
	if *f.n == 0 {
		return 0, errors.New("injected write failure")
	}
	*f.n--
	return f.File.Write(p)
}

// TestBatchFaultInALaterChunkFailsTheRest: when the log refuses a chunk of
// a batch, the chunks before it stay stored and acknowledged, and that chunk
// and every later one fail as a durability fault, entry by entry, however
// the entries the store refused itself fall between them.
func TestBatchFaultInALaterChunkFailsTheRest(t *testing.T) {
	writes := -1 // no limit while the log is opened
	store, _, err := OpenStore(10, StorageOptions{Dir: t.TempDir(), FS: writesLeft{n: &writes}})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.batchChunk = 2*reportEntrySize("ck-0", batchReport(0)) + 8 // two entries a chunk
	items := make([]BatchItem, 9)
	for i := range items {
		items[i] = BatchItem{Key: fmt.Sprintf("ck-%d", i), Report: batchReport(i)}
	}
	items[1].Report.Vehicle = "" // refused before anything is logged
	items[6].Report.Vehicle = ""
	writes = 2 // the chunks of items 0 and 2, and of 3 and 4
	errs := store.AddReportBatch(context.Background(), items)
	for i, err := range errs {
		switch {
		case i == 1 || i == 6:
			if err == nil || errors.Is(err, ErrDurability) {
				t.Errorf("entry %d: %v, want its own refusal", i, err)
			}
		case i < 5:
			if err != nil {
				t.Errorf("entry %d: %v, want stored", i, err)
			}
		default:
			if !errors.Is(err, ErrDurability) {
				t.Errorf("entry %d: %v, want a durability fault", i, err)
			}
		}
	}
	if _, _, n := store.Counts(); n != 4 {
		t.Fatalf("stored %d reports, want the 4 of the chunks logged", n)
	}
}

// TestBatchOversizedRecordFailsAloneAs413 plants one entry too large for
// any chunk among normal ones: it alone fails with ErrRecordTooLarge (413
// at the HTTP layer), the rest store, and the server does NOT flip
// read-only — an oversized payload is the client's fault, not the disk's.
func TestBatchOversizedRecordFailsAloneAs413(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(10, StorageOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.batchChunk = 512
	ts := httptest.NewServer(New(store))
	defer ts.Close()

	huge := batchReport(1)
	huge.Segment = strings.Repeat("s", 2048) // record > chunk budget
	status, out := mustPostBatch(t, ts.URL, []BatchItem{
		{Key: "ov-0", Report: batchReport(0)},
		{Key: "ov-1", Report: huge},
		{Key: "ov-2", Report: batchReport(2)},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	want := []int{201, http.StatusRequestEntityTooLarge, 201}
	for i, st := range out {
		if st.Status != want[i] {
			t.Errorf("result %d status = %d, want %d", i, st.Status, want[i])
		}
	}
	// The store must still accept writes: no read-only flip happened.
	status2, out2 := mustPostBatch(t, ts.URL, []BatchItem{{Key: "ov-3", Report: batchReport(3)}})
	if status2 != http.StatusOK || out2[0].Status != http.StatusCreated {
		t.Fatalf("write after oversized record: status %d, entries %+v", status2, out2)
	}
}

func TestBatchEmptyBodyKeepsArrayContract(t *testing.T) {
	_, ts := newTestServer(t)
	status, out := mustPostBatch(t, ts.URL, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if out == nil || len(out) != 0 {
		t.Fatalf("empty batch decodes to %#v, want a non-nil empty vector", out)
	}
}
