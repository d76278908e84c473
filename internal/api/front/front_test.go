package front

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
)

// TestClassify pins the one route → family table both tiers shed by.
func TestClassify(t *testing.T) {
	cases := []struct {
		route, method string
		family        overload.Family
		mutates       bool
	}{
		{api.RouteLookup, http.MethodGet, overload.FamilyLookup, false},
		{api.RouteReports, http.MethodPost, overload.FamilyUpload, true},
		{api.RouteReportsBatch, http.MethodPost, overload.FamilyUpload, true},
		{api.RoutePatterns, http.MethodPost, overload.FamilyUpload, true},
		{api.RouteLabels, http.MethodPost, overload.FamilyUpload, true},
		{api.RoutePatterns, http.MethodGet, overload.FamilyControl, false},
		{api.RouteTasks, http.MethodGet, overload.FamilyControl, false},
		{api.RouteReliability, http.MethodGet, overload.FamilyControl, false},
		{api.RouteAggregate, http.MethodPost, overload.FamilyControl, true},
		{api.RouteClusterSlice, http.MethodPost, overload.FamilyControl, true},
		{api.RouteClusterSlice, http.MethodGet, overload.FamilyControl, false},
		{api.RouteClusterDrop, http.MethodPost, overload.FamilyControl, true},
		{api.RouteClusterDigest, http.MethodGet, overload.FamilyControl, false},
		{api.RouteClusterMembers, http.MethodPost, overload.FamilyControl, false},
	}
	for _, tc := range cases {
		family, mutates := classify(tc.route, tc.method)
		if family != tc.family || mutates != tc.mutates {
			t.Errorf("%s %s = (%v, %v), want (%v, %v)", tc.method, tc.route, family, mutates, tc.family, tc.mutates)
		}
	}
}

// TestMethodLabelIsBounded: net/http accepts any token as a method, so the
// RED series and the slowest-traces view must fold unknown methods into one
// label — a hundred spellings on one route add at most one of each.
func TestMethodLabelIsBounded(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := trace.NewTracer(trace.Config{SampleRate: 1})
	s := &Stack{Tier: "server", Metrics: "x_http", Registry: reg, Sheds: reg.Counter("x_shed_total", ""), Tracer: tracer}
	mux := http.NewServeMux()
	s.Handle(mux, api.RouteLookup, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.WriteHeader(http.StatusMethodNotAllowed)
		}
	})
	series := func() int {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return strings.Count(sb.String(), "\nx_http_requests_total{")
	}
	mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, api.RouteLookup, nil))
	seriesBefore, rootsBefore := series(), len(tracer.Store().Slowest())
	for i := 0; i < 100; i++ {
		mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(fmt.Sprintf("M%d", i), api.RouteLookup, nil))
	}
	if got := series() - seriesBefore; got > 1 {
		t.Errorf("100 distinct methods added %d x_http_requests_total series, want ≤ 1", got)
	}
	if got := len(tracer.Store().Slowest()) - rootsBefore; got > 1 {
		t.Errorf("100 distinct methods added %d slowest-trace root names, want ≤ 1", got)
	}
	if v := reg.Counter("x_http_requests_total", "", obs.L("route", api.RouteLookup), obs.L("method", "other"), obs.L("code", "405")).Value(); v != 100 {
		t.Errorf(`method="other" counted %d requests, want 100`, v)
	}
}
