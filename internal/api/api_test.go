package api

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdwifi/internal/geo"
)

// TestRetryAfterHeaderCombinations is the table for the one Retry-After
// parser: every combination of the two headers a shed can carry.
func TestRetryAfterHeaderCombinations(t *testing.T) {
	cases := []struct {
		name     string
		ms, secs string
		want     time.Duration
	}{
		{"ms only", "40", "", 40 * time.Millisecond},
		{"seconds only", "", "3", 3 * time.Second},
		{"both: ms wins", "40", "1", 40 * time.Millisecond},
		{"zero ms falls back to seconds", "0", "2", 2 * time.Second},
		{"zero seconds", "", "0", 0},
		{"negative ms falls back to seconds", "-5", "2", 2 * time.Second},
		{"negative seconds", "", "-5", 0},
		{"garbage ms falls back to seconds", "soon", "2", 2 * time.Second},
		{"garbage seconds (HTTP-date unsupported)", "", "Wed, 21 Oct 2015 07:28:00 GMT", 0},
		{"ms over the cap", "999000", "", MaxRetryAfter},
		{"seconds over the cap", "", "999", MaxRetryAfter},
		{"ms that overflows a Duration", "9300000000000", "", MaxRetryAfter},
		{"seconds that overflow a Duration", "", "9223372037", MaxRetryAfter},
		{"absent", "", "", 0},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.ms != "" {
			h.Set(RetryAfterMsHeader, tc.ms)
		}
		if tc.secs != "" {
			h.Set("Retry-After", tc.secs)
		}
		if got := RetryAfter(h); got != tc.want {
			t.Errorf("%s: RetryAfter = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShedRoundTripsThroughParser pins the 503 shape to its parser: what
// WriteShed sends, RetryAfter reads back, at either precision.
func TestShedRoundTripsThroughParser(t *testing.T) {
	cases := []struct {
		hint     time.Duration
		wantSecs string
		wantMs   string
		parsed   time.Duration
	}{
		{0, "1", "", time.Second},
		{40 * time.Millisecond, "1", "40", 40 * time.Millisecond},
		{1500 * time.Millisecond, "2", "1500", 1500 * time.Millisecond},
		{time.Hour, "3600", "3600000", MaxRetryAfter},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		WriteShed(rec, errors.New("busy"), tc.hint)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("hint %v: status %d", tc.hint, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.wantSecs {
			t.Errorf("hint %v: Retry-After = %q, want %q", tc.hint, got, tc.wantSecs)
		}
		if got := rec.Header().Get(RetryAfterMsHeader); got != tc.wantMs {
			t.Errorf("hint %v: %s = %q, want %q", tc.hint, RetryAfterMsHeader, got, tc.wantMs)
		}
		if got := rec.Body.String(); got != "{\"error\":\"busy\"}\n" {
			t.Errorf("hint %v: body %q", tc.hint, got)
		}
		if got := RetryAfter(rec.Header()); got != tc.parsed {
			t.Errorf("hint %v: parsed back as %v, want %v", tc.hint, got, tc.parsed)
		}
	}
}

func TestLookupQueryRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 999999, 1e6, 3725000.5, -1e6, -42.25, 1e-7, 1e21} {
		area := geo.Rect{Min: geo.Point{X: v - 1, Y: v}, Max: geo.Point{X: v + 1, Y: v + 2}}
		q, err := url.ParseQuery(LookupQuery(area))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		got, err := ParseLookupQuery(q)
		if err != nil {
			t.Fatalf("%v: ParseLookupQuery(%q): %v", v, LookupQuery(area), err)
		}
		if got != area {
			t.Errorf("%v: round trip = %+v, want %+v", v, got, area)
		}
	}
}

func TestParseLookupQueryRejects(t *testing.T) {
	for query, want := range map[string]string{
		"xmin=0&ymin=0&xmax=1":              "bad ymax",
		"xmin=a&ymin=0&xmax=1&ymax=1":       "bad xmin",
		"xmin=1e+06&ymin=0&xmax=2e6&ymax=1": "bad xmin", // a bare + is a space
		"xmin=2&ymin=0&xmax=1&ymax=1":       "degenerate rect: xmin must not exceed xmax and ymin must not exceed ymax",
		"xmin=0&ymin=2&xmax=1&ymax=1":       "degenerate rect: xmin must not exceed xmax and ymin must not exceed ymax",
		"xmin=NaN&ymin=0&xmax=1&ymax=NaN":   "bad xmin", // NaN > x is false: the corner check alone lets it through
		"xmin=0&ymin=0&xmax=1&ymax=nan":     "bad ymax",
	} {
		q, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseLookupQuery(q); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", query, err, want)
		}
	}
}

func TestWriteBodyError(t *testing.T) {
	rec := httptest.NewRecorder()
	if !WriteBodyError(rec, &http.MaxBytesError{Limit: 64}) {
		t.Error("MaxBytesError not reported as the cap")
	}
	if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != "{\"error\":\"body exceeds 64 bytes\"}\n" {
		t.Errorf("cap: %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	if WriteBodyError(rec, strconv.ErrSyntax) {
		t.Error("syntax error reported as the cap")
	}
	if rec.Code != http.StatusBadRequest {
		t.Errorf("syntax error: status %d", rec.Code)
	}
}

// TestReadBodyTrustsTheDeclarationOnlyToTheLimit: a body is read in one
// allocation sized from its Content-Length, and no declaration costs more
// than the limit it is read under.
func TestReadBodyTrustsTheDeclarationOnlyToTheLimit(t *testing.T) {
	const limit = DefaultBatchMaxBodyBytes
	read := func(declared int64, body string) ([]byte, uint64, error) {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		r.ContentLength = declared
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadBody(httptest.NewRecorder(), r, limit)
		runtime.ReadMemStats(&after)
		return got, after.TotalAlloc - before.TotalAlloc, err
	}

	got, _, err := read(5, "hello")
	if err != nil || string(got) != "hello" || cap(got) != 5 {
		t.Fatalf("exact body: %q (cap %d), %v; want \"hello\" in a 5-byte allocation", got, cap(got), err)
	}
	if got, _, err = read(-1, "chunked"); err != nil || string(got) != "chunked" {
		t.Fatalf("unknown length: %q, %v", got, err)
	}

	for _, declared := range []int64{limit + 1, 1 << 30} {
		_, alloc, err := read(declared, "short")
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) || tooLarge.Limit != limit {
			t.Errorf("declared %d over the limit: %v, want an *http.MaxBytesError at %d", declared, err, limit)
		}
		if alloc >= 2*limit {
			t.Errorf("declared %d: allocated %d, want < %d", declared, alloc, 2*limit)
		}
	}
	_, alloc, err := read(limit, "short")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("body shorter than declared: %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc >= 2*limit {
		t.Errorf("declared %d: allocated %d, want < %d", int64(limit), alloc, 2*limit)
	}
	if _, _, err = read(10, ""); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("empty body declared 10 bytes: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err = read(-1, strings.Repeat("x", limit+1)); !errors.As(err, new(*http.MaxBytesError)) {
		t.Errorf("unknown length over the limit: %v, want an *http.MaxBytesError", err)
	}
}
