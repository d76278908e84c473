package trace

import (
	"context"
	"net/http"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := newTestTracer(t, 1)
	ctx := WithTracer(context.Background(), tr)
	ctx, s := Start(ctx, "client.POST /report")
	defer s.End()

	h := http.Header{}
	Inject(ctx, h)
	v := h.Get(Header)
	want := "00-" + s.traceID.String() + "-" + s.spanID.String() + "-01"
	if v != want {
		t.Fatalf("injected %q, want %q", v, want)
	}

	tid, parent, sampled, err := Extract(h)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if tid.String() != s.traceID.String() || parent.String() != s.spanID.String() || !sampled {
		t.Fatalf("extracted %s/%s/%v, want %s/%s/true", tid, parent, sampled, s.traceID.String(), s.spanID.String())
	}

	// Server side continues the trace with the client span as remote parent.
	_, srv := tr.StartServer(context.Background(), "server POST /report", h)
	if srv == nil {
		t.Fatal("StartServer dropped a sampled continuation")
	}
	defer srv.End()
	if srv.traceID.String() != s.traceID.String() {
		t.Fatalf("server trace %s != client trace %s", srv.traceID.String(), s.traceID.String())
	}
}

func TestParseTraceparentGolden(t *testing.T) {
	tid, parent, sampled, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatalf("golden W3C example rejected: %v", err)
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace-id %s", tid)
	}
	if parent.String() != "00f067aa0ba902b7" {
		t.Fatalf("parent-id %s", parent)
	}
	if !sampled {
		t.Fatal("flags 01 not sampled")
	}

	// Unsampled flag.
	_, _, sampled, err = ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if err != nil || sampled {
		t.Fatalf("flags 00: sampled=%v err=%v", sampled, err)
	}

	// Future version with extra fields is accepted (per spec).
	if _, _, _, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); err != nil {
		t.Fatalf("future-version value rejected: %v", err)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	cases := []struct{ name, v string }{
		{"empty", ""},
		{"garbage", "not-a-traceparent"},
		{"too few fields", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7"},
		{"version ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"version 00 extra field", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x"},
		{"short trace-id", "00-4bf92f3577b34da6-00f067aa0ba902b7-01"},
		{"long trace-id", "00-4bf92f3577b34da6a3ce929d0e0e473600-00f067aa0ba902b7-01"},
		{"zero trace-id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"non-hex trace-id", "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01"},
		{"uppercase trace-id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01"},
		{"short parent-id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa-01"},
		{"zero parent-id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01"},
		{"non-hex parent-id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bx-01"},
		{"bad flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x"},
		{"short flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1"},
		{"bad version", "0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
	}
	for _, tc := range cases {
		if _, _, _, err := ParseTraceparent(tc.v); err == nil {
			t.Errorf("%s: %q accepted, want error", tc.name, tc.v)
		}
	}
}

// TestStartServerFallsBackOnMalformedHeader: a bad traceparent must not kill
// tracing — the server starts a fresh root instead.
func TestStartServerFallsBackOnMalformedHeader(t *testing.T) {
	tr := newTestTracer(t, 1)
	for _, v := range []string{"", "bogus", "ff-aaaa-bbbb-01"} {
		h := http.Header{}
		if v != "" {
			h.Set(Header, v)
		}
		_, s := tr.StartServer(context.Background(), "server GET /x", h)
		if s == nil {
			t.Fatalf("header %q: no fallback root span", v)
		}
		if strings.Contains(v, "-") {
			// The malformed id must not leak into the fresh trace.
			if strings.Contains(v, s.traceID.String()) {
				t.Fatalf("fallback reused malformed trace id")
			}
		}
		s.End()
	}
}

// TestStartServerHonorsUnsampledBit: upstream said "don't record" — obey.
func TestStartServerHonorsUnsampledBit(t *testing.T) {
	tr := newTestTracer(t, 1)
	h := http.Header{}
	h.Set(Header, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if _, s := tr.StartServer(context.Background(), "server POST /report", h); s != nil {
		t.Fatal("unsampled continuation recorded a span")
	}
}

func TestResumeFallsBackToStart(t *testing.T) {
	tr := newTestTracer(t, 1)
	ctx := WithTracer(context.Background(), tr)
	_, s := Resume(ctx, "client.drain /report", "malformed")
	if s == nil {
		t.Fatal("Resume with bad traceparent did not fall back to a fresh root")
	}
	s.End()
	// Without a tracer Resume is a no-op.
	if _, s := Resume(context.Background(), "x", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"); s != nil {
		t.Fatal("Resume without tracer returned a span")
	}
}

// FuzzParseTraceparent: any header value parses or errors without a panic,
// and an accepted one, re-rendered in Inject's layout with its sampled flag,
// parses back to the same trace id, parent and flag.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03-extra",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"---",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tid, parent, sampled, err := ParseTraceparent(v)
		if err != nil {
			return
		}
		flags := "00"
		if sampled {
			flags = "01"
		}
		again := "00-" + tid.String() + "-" + parent.String() + "-" + flags
		tid2, parent2, sampled2, err := ParseTraceparent(again)
		if err != nil || tid2 != tid || parent2 != parent || sampled2 != sampled {
			t.Fatalf("%q parsed to %q, which parses to %s/%s/%v (err %v)", v, again, tid2, parent2, sampled2, err)
		}
	})
}
