package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdwifi/internal/overload"
)

// The frame codec carries raw IEEE-754 bits, so a NaN or an infinity can
// arrive where JSON could never bring one. It is the request that is wrong:
// 400, nothing stored, and never a durability fault — one such frame used to
// fail the record's json.Marshal, be reported as a disk error, and turn the
// shard read-only for everyone.

func nonFiniteServer(t *testing.T) (*Store, *Server, *httptest.Server) {
	t.Helper()
	store, _ := openDurable(t, t.TempDir())
	t.Cleanup(func() { store.Close() })
	srv := New(store, WithOverload(overload.Options{}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return store, srv, ts
}

func postFrames(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	req.Header.Set("Content-Type", FrameContentType)
	req.Header.Set("Accept", FrameContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func stillHealthy(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	if mode := srv.Overload().Controller().Mode(); mode != overload.ModeHealthy {
		t.Fatalf("mode = %s after a malformed request, want healthy", mode)
	}
	resp := postJSON(t, ts.URL+"/v1/reports", Report{Vehicle: "honest", Segment: "s", APs: []APReport{{X: 1, Y: 1, Credit: 1}}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("honest upload after a malformed request: status %d", resp.StatusCode)
	}
}

func TestNonFiniteReportFrameIs400(t *testing.T) {
	for _, bad := range []APReport{{X: math.NaN(), Y: 1, Credit: 1}, {X: 1, Y: math.Inf(1), Credit: 1}, {X: 1, Y: 1, Credit: math.Inf(-1)}} {
		store, srv, ts := nonFiniteServer(t)
		frame, err := EncodeReportFrame(nil, "", Report{Vehicle: "v", Segment: "s", APs: []APReport{bad}})
		if err != nil {
			t.Fatal(err)
		}
		status, body := postFrames(t, ts.URL+"/v1/reports", frame)
		if status != http.StatusBadRequest || !strings.Contains(string(body), "non-finite") {
			t.Fatalf("%+v: status %d body %s, want 400 naming the non-finite value", bad, status, body)
		}
		if _, _, n := store.Counts(); n != 0 {
			t.Fatalf("%+v: %d reports stored", bad, n)
		}
		stillHealthy(t, srv, ts)
	}
}

func TestNonFiniteEntryFailsAloneInABatch(t *testing.T) {
	store, srv, ts := nonFiniteServer(t)
	const n, badAt = 32, 17
	var body []byte
	for i := 0; i < n; i++ {
		rep := batchReport(i)
		if i == badAt {
			rep.APs[0].X = math.NaN()
		}
		body, _ = EncodeReportFrame(body, fmt.Sprintf("nf-%d", i), rep)
	}
	status, out := postFrames(t, ts.URL+"/v1/reports/batch", body)
	if status != http.StatusOK {
		t.Fatalf("batch status %d body %s", status, out)
	}
	results, err := DecodeBatchStatusFrame(out)
	if err != nil || len(results) != n {
		t.Fatalf("status vector: %d entries, err %v", len(results), err)
	}
	for i, st := range results {
		want := http.StatusCreated
		if i == badAt {
			want = http.StatusBadRequest
		}
		if st.Status != want {
			t.Errorf("entry %d: status %d (%s), want %d", i, st.Status, st.Error, want)
		}
	}
	if _, _, got := store.Counts(); got != n-1 {
		t.Fatalf("%d reports stored, want %d", got, n-1)
	}
	// The refused entry's key is free: its corrected retry stores.
	fixed, _ := EncodeReportFrame(nil, fmt.Sprintf("nf-%d", badAt), batchReport(badAt))
	if status, out := postFrames(t, ts.URL+"/v1/reports/batch", fixed); status != http.StatusOK {
		t.Fatalf("retry: status %d body %s", status, out)
	}
	if _, _, got := store.Counts(); got != n {
		t.Fatalf("%d reports stored after the corrected retry, want %d", got, n)
	}
	stillHealthy(t, srv, ts)
	// The books balance on disk too.
	if _, _, got := diskState(t, store.storage.Dir).Counts(); got != n+1 {
		t.Fatalf("disk holds %d reports, want %d", got, n+1)
	}
}

func TestNonFinitePatternIsRefusedNotADiskFault(t *testing.T) {
	store, _, _ := nonFiniteServer(t)
	_, err := store.AddPatternKeyed(context.Background(), "", "s", []APReport{{X: 1, Y: math.NaN(), Credit: 1}})
	if err == nil || errors.Is(err, ErrDurability) {
		t.Fatalf("err = %v, want a validation error that is not ErrDurability", err)
	}
	if p, _, _ := store.Counts(); p != 0 {
		t.Fatalf("%d patterns stored", p)
	}
}
