package obs

import "testing"

func TestParseLabels(t *testing.T) {
	cases := []struct {
		in   string
		want map[string]string
	}{
		{``, map[string]string{}},
		{`route="/v1/reports"`, map[string]string{"route": "/v1/reports"}},
		{`code="201",route="/v1/reports"`, map[string]string{"code": "201", "route": "/v1/reports"}},
		{`k="a\"b",q="c\\d",n="e\nf"`, map[string]string{"k": `a"b`, "q": `c\d`, "n": "e\nf"}},
	}
	for _, tc := range cases {
		got := parseLabels(tc.in)
		if got == nil {
			t.Fatalf("parseLabels(%q) = nil", tc.in)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("parseLabels(%q) = %v, want %v", tc.in, got, tc.want)
		}
		for k, v := range tc.want {
			if got[k] != v {
				t.Errorf("parseLabels(%q)[%s] = %q, want %q", tc.in, k, got[k], v)
			}
		}
	}
	// A trailing comma is valid exposition syntax ({a="b",}), so it is NOT in
	// the malformed set.
	for _, bad := range []string{`route=`, `route="x`, `="y"`, `a="b"c="d"`} {
		if got := parseLabels(bad); got != nil {
			t.Errorf("parseLabels(%q) = %v, want nil", bad, got)
		}
	}
}

func TestParseLabelsRoundTrip(t *testing.T) {
	labels := []Label{L("route", "/v1/lookup"), L("weird", `quo"te\back`)}
	s := labelString(labels)
	got := parseLabels(s)
	if got["route"] != "/v1/lookup" || got["weird"] != `quo"te\back` {
		t.Fatalf("round trip of %q = %v", s, got)
	}
}

func TestSumCounters(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "", L("route", "/a"), L("code", "200")).Add(5)
	reg.Counter("hits_total", "", L("route", "/a"), L("code", "500")).Add(2)
	reg.Counter("hits_total", "", L("route", "/b"), L("code", "200")).Add(11)
	reg.Gauge("not_a_counter", "").Set(99)

	if got := reg.SumCounters("hits_total", nil); got != 18 {
		t.Fatalf("SumCounters(nil match) = %v, want 18", got)
	}
	routeA := func(ls map[string]string) bool { return ls["route"] == "/a" }
	if got := reg.SumCounters("hits_total", routeA); got != 7 {
		t.Fatalf("SumCounters(route=/a) = %v, want 7", got)
	}
	if got := reg.SumCounters("not_a_counter", nil); got != 0 {
		t.Fatalf("SumCounters over a gauge = %v, want 0", got)
	}
	if got := reg.SumCounters("missing", nil); got != 0 {
		t.Fatalf("SumCounters over a missing family = %v, want 0", got)
	}
	var nilReg *Registry
	if got := nilReg.SumCounters("hits_total", nil); got != 0 {
		t.Fatalf("nil registry SumCounters = %v", got)
	}
}
