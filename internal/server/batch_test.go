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

func postBatchJSON(t *testing.T, url string, req api.BatchRequest) (*http.Response, api.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/reports/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out api.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
	}
	return resp, out
}

func TestBatchHappyPathAndPerEntryReplay(t *testing.T) {
	store, ts := newTestServer(t)
	req := api.BatchRequest{}
	for i := 0; i < 3; i++ {
		req.Entries = append(req.Entries, api.BatchEntry{Key: fmt.Sprintf("bk-%d", i), Report: batchReport(i)})
	}
	resp, out := postBatchJSON(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	for i, st := range out.Results {
		if st.Key != req.Entries[i].Key {
			t.Errorf("result %d key = %q, want %q (request order)", i, st.Key, req.Entries[i].Key)
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
	resp, out = postBatchJSON(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status = %d, want 200", resp.StatusCode)
	}
	for i, st := range out.Results {
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
	req := api.BatchRequest{Entries: []api.BatchEntry{
		{Key: "mx-0", Report: batchReport(0)},
		{Key: "mx-1", Report: Report{Segment: "s"}}, // no vehicle → 400
		{Key: "mx-2", Report: batchReport(2)},
	}}
	resp, out := postBatchJSON(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (partial failure is per entry)", resp.StatusCode)
	}
	want := []int{201, 400, 201}
	for i, st := range out.Results {
		if st.Status != want[i] {
			t.Errorf("result %d status = %d, want %d", i, st.Status, want[i])
		}
	}
	if out.Results[1].Error == "" {
		t.Error("invalid entry carries no error text")
	}
	if n := store.reports.len(); n != 2 {
		t.Fatalf("stored reports = %d, want 2", n)
	}
	// The rejected entry's key must not be poisoned: retrying it alone with
	// a fixed report stores it.
	resp2, out2 := postBatchJSON(t, ts.URL, api.BatchRequest{Entries: []api.BatchEntry{
		{Key: "mx-1", Report: batchReport(1)},
	}})
	if resp2.StatusCode != http.StatusOK || out2.Results[0].Status != http.StatusCreated {
		t.Fatalf("retry of failed entry: status %d, entry %d", resp2.StatusCode, out2.Results[0].Status)
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
		name  string
		path  string
		limit int
	}{
		{"reports", "/v1/reports", api.DefaultMaxBodyBytes},
		{"batch", "/v1/reports/batch", api.DefaultBatchMaxBodyBytes},
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
			resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(body))
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
	resp, out := postBatchJSON(t, ts.URL, api.BatchRequest{Entries: []api.BatchEntry{
		{Key: "ov-0", Report: batchReport(0)},
		{Key: "ov-1", Report: huge},
		{Key: "ov-2", Report: batchReport(2)},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	want := []int{201, http.StatusRequestEntityTooLarge, 201}
	for i, st := range out.Results {
		if st.Status != want[i] {
			t.Errorf("result %d status = %d, want %d", i, st.Status, want[i])
		}
	}
	// The store must still accept writes: no read-only flip happened.
	resp2, out2 := postBatchJSON(t, ts.URL, api.BatchRequest{Entries: []api.BatchEntry{
		{Key: "ov-3", Report: batchReport(3)},
	}})
	if resp2.StatusCode != http.StatusOK || out2.Results[0].Status != http.StatusCreated {
		t.Fatalf("write after oversized record: status %d, entry %d",
			resp2.StatusCode, out2.Results[0].Status)
	}
}

func TestBatchEmptyBodyKeepsArrayContract(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/reports/batch", "application/json",
		strings.NewReader(`{"entries":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(raw), `"results":[]`) {
		t.Fatalf("empty batch body = %s, want \"results\":[] (never null)", raw)
	}
}
