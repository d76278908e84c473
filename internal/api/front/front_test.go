package front

import (
	"net/http"
	"testing"

	"crowdwifi/internal/api"
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
