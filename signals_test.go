package crowdwifi

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// A signal — a crowdwifi_* metric family or a /debug/* route — earns its
// place on one of three grounds. Its signalAllow entry names the ground and
// then says who reads it.
const (
	// groundBench: a bench/ file reads it.
	groundBench = "bench"
	// groundCI: a step of .github/workflows/ci.yml asserts on it.
	groundCI = "ci"
	// groundReadme: README gives it an operator-facing row or command.
	groundReadme = "readme"
)

type signalReason struct{ ground, reason string }

// signalAllow is every crowdwifi_* family any binary registers and every
// /debug/* route any binary mounts, with the ground it is admitted on. A
// signal with no entry here is deleted.
var signalAllow = map[string]signalReason{
	// The RED triple every /v1 route is served through, on a shard
	// (crowdwifi_http_*) and on the router (crowdwifi_router_http_*).
	// README's objectives are burn-rate expressions over them.
	"crowdwifi_http_requests_total":                  {groundReadme, "upload availability is the non-5xx share of the upload routes' requests"},
	"crowdwifi_http_request_duration_seconds":        {groundReadme, "lookup latency is the share of lookups in the 500 ms bucket"},
	"crowdwifi_http_errors_total":                    {groundReadme, "which route is failing, and with which code"},
	"crowdwifi_router_http_requests_total":           {groundReadme, "the router's upload availability, measured at the front door"},
	"crowdwifi_router_http_request_duration_seconds": {groundReadme, "the router's lookup latency, measured at the front door"},
	"crowdwifi_router_http_errors_total":             {groundReadme, "which routed route is failing, and with which code"},
	"crowdwifi_build_info":                           {groundReadme, "which build a process runs, to join any series against"},

	// The store and its log.
	"crowdwifi_server_reports_total":                {groundBench, "the bench's books: reports stored against reports acked"},
	"crowdwifi_server_labels_total":                 {groundReadme, "is the crowd answering tasks"},
	"crowdwifi_server_patterns_total":               {groundReadme, "are mapping tasks being posted"},
	"crowdwifi_server_aggregate_cycles_total":       {groundBench, "cycles run in mixed_aggregate"},
	"crowdwifi_server_aggregate_duration_seconds":   {groundBench, "what mixed_aggregate's cycles cost"},
	"crowdwifi_server_aggregate_errors_total":       {groundReadme, "did a cycle fail, leaving the fused map stale"},
	"crowdwifi_server_fused_aps":                    {groundReadme, "how many APs the last cycle fused"},
	"crowdwifi_server_vehicles_scored":              {groundReadme, "how many vehicles the last cycle weighed"},
	"crowdwifi_server_spammers_flagged":             {groundReadme, "how many vehicles the last cycle weighed under half"},
	"crowdwifi_server_reliability_mean":             {groundReadme, "whether the crowd as a whole is trusted"},
	"crowdwifi_server_deduped_requests_total":       {groundReadme, "how often clients re-send what was stored"},
	"crowdwifi_server_shed_requests_total":          {groundBench, "503s the server originated, against the bench's acked share"},
	"crowdwifi_server_body_limit_rejections_total":  {groundReadme, "is a client sending bodies over the cap"},
	"crowdwifi_wal_appends_total":                   {groundBench, "records per report"},
	"crowdwifi_wal_append_bytes_total":              {groundBench, "log bytes per report"},
	"crowdwifi_wal_fsyncs_total":                    {groundBench, "fsyncs per report"},
	"crowdwifi_wal_snapshot_errors_total":           {groundReadme, "are snapshots failing, so the log grows without compaction"},
	"crowdwifi_wal_recovery_replayed_records_total": {groundReadme, "how much the last boot replayed"},
	"crowdwifi_wal_recovery_truncated_bytes_total":  {groundReadme, "did the last boot cut a torn tail"},
	"crowdwifi_wal_torn_tail_heals_total":           {groundReadme, "did a write fail and heal in place, disk trouble before read-only"},
	"crowdwifi_crowd_inference_sweeps":              {groundReadme, "how long the reliability inference takes to converge"},
	"crowdwifi_crowd_inference_runs_total":          {groundReadme, "does the reliability inference converge"},

	// Admission and the durability machine.
	"crowdwifi_admission_admitted_total":   {groundBench, "the traced pass's shed share"},
	"crowdwifi_admission_shed_total":       {groundBench, "sheds by family and reason"},
	"crowdwifi_overload_mode":              {groundReadme, "which durability mode the shard is in, as /readyz says"},
	"crowdwifi_overload_transitions_total": {groundReadme, "through which edges the mode moved"},

	// The router's view of its shards.
	"crowdwifi_router_upstream_requests_total": {groundBench, "upstream requests per routed lookup"},
	"crowdwifi_router_upstream_errors_total":   {groundReadme, "which shard the router fails to reach"},
	"crowdwifi_router_shard_mode":              {groundReadme, "which shard is degraded, as the router last saw it"},
	"crowdwifi_router_partial_lookups_total":   {groundReadme, "are lookups answered without every shard"},
	"crowdwifi_router_rerouted_total":          {groundReadme, "do router and shards disagree on the ring"},
	"crowdwifi_router_shed_requests_total":     {groundReadme, "503s the router originated, as opposed to relayed"},

	// The vehicle: its engine and its client.
	"crowdwifi_solver_runs_total":               {groundReadme, "does BPDN converge"},
	"crowdwifi_solver_iterations":               {groundReadme, "how many iterations BPDN takes"},
	"crowdwifi_cs_rounds_total":                 {groundReadme, "do the vehicle's rounds succeed"},
	"crowdwifi_cs_round_duration_seconds":       {groundReadme, "what one round costs the vehicle"},
	"crowdwifi_cs_window_samples":               {groundReadme, "is the vehicle collecting samples"},
	"crowdwifi_cs_consolidation_merges_total":   {groundReadme, "how often estimates of one AP are merged"},
	"crowdwifi_client_requests_total":           {groundReadme, "do the vehicle's requests succeed"},
	"crowdwifi_client_request_duration_seconds": {groundReadme, "what the server costs the vehicle per endpoint"},
	"crowdwifi_client_outbox_enqueued_total":    {groundReadme, "how many uploads were parked"},
	"crowdwifi_client_outbox_drained_total":     {groundReadme, "how many parked uploads were delivered"},
	"crowdwifi_client_outbox_dropped_total":     {groundReadme, "is the outbox dropping poison entries or losing uploads to a full outbox"},
	"crowdwifi_client_outbox_depth":             {groundReadme, "how far behind the vehicle is"},
	"crowdwifi_retry_retries_total":             {groundReadme, "how often the vehicle retries"},
	"crowdwifi_retry_exhausted_total":           {groundReadme, "do retries run out of attempts"},
	"crowdwifi_retry_budget_denied_total":       {groundReadme, "are retries suppressed by the budget"},
	"crowdwifi_breaker_state":                   {groundReadme, "is the vehicle's breaker open"},
	"crowdwifi_breaker_transitions_total":       {groundReadme, "how often the breaker flaps"},
	"crowdwifi_breaker_denied_total":            {groundReadme, "is the breaker refusing requests"},

	// Debug routes.
	"/debug/pprof/":        {groundReadme, "heap, goroutine and other runtime profiles"},
	"/debug/pprof/profile": {groundReadme, "a CPU profile for go tool pprof"},
	"/debug/pprof/trace":   {groundReadme, "an execution trace for go tool trace"},
	"/debug/traces":        {groundCI, "the cluster job reads the router's index"},
	"/debug/traces/":       {groundCI, "the cluster job reads a trace from the router and from its shard"},
	"/debug/cluster":       {groundCI, "the cluster job asserts every shard reachable and no drift"},
}

// signalSources are the readers a ground is checked against.
type signalSources struct {
	bench, ci, readme string
}

// signals parses every non-test file under internal/ and cmd/ and returns
// the crowdwifi_* families they register and the /debug/* routes they
// mount. A family name is a string literal, or a serving stack's Metrics
// prefix joined to a suffix the stack appends to it.
func signals(t *testing.T) (families, routes map[string]bool) {
	t.Helper()
	family := regexp.MustCompile(`^crowdwifi_[a-z0-9_]+$`)
	families, routes = map[string]bool{}, map[string]bool{}
	consts := map[string]string{} // dir.Name → string value
	type metricsValue struct {
		dir string
		e   ast.Expr
	}
	var values []metricsValue // what each Metrics: field is set to
	var prefixes, suffixes []string
	for _, f := range loadModule(t).files {
		if !(strings.HasPrefix(f.dir, "internal/") || strings.HasPrefix(f.dir, "cmd/")) {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BasicLit:
				if v, err := strconv.Unquote(x.Value); err == nil && x.Kind == token.STRING && family.MatchString(v) {
					families[v] = true
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) {
						if lit, ok := x.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							consts[f.dir+"."+name.Name], _ = strconv.Unquote(lit.Value)
						}
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := x.Key.(*ast.Ident); ok && key.Name == "Metrics" {
					values = append(values, metricsValue{f.dir, x.Value})
				}
			case *ast.BinaryExpr:
				if sel, ok := x.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Metrics" && x.Op == token.ADD {
					if lit, ok := x.Y.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						s, _ := strconv.Unquote(lit.Value)
						suffixes = append(suffixes, s)
					}
				}
			case *ast.CallExpr:
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") || len(x.Args) == 0 {
					return true
				}
				if lit, ok := x.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if route, _ := strconv.Unquote(lit.Value); strings.HasPrefix(route, "/debug/") {
						routes[route] = true
					}
				}
			}
			return true
		})
	}
	for _, mv := range values {
		switch v := mv.e.(type) {
		case *ast.BasicLit:
			s, _ := strconv.Unquote(v.Value)
			prefixes = append(prefixes, s)
		case *ast.Ident:
			if s, ok := consts[mv.dir+"."+v.Name]; ok {
				prefixes = append(prefixes, s)
			}
		}
	}
	for _, p := range prefixes {
		delete(families, p)
		for _, s := range suffixes {
			families[p+s] = true
		}
	}
	if len(prefixes) == 0 || len(suffixes) == 0 {
		t.Fatalf("found %d serving-stack prefixes and %d suffixes: the census no longer sees the RED families", len(prefixes), len(suffixes))
	}
	return families, routes
}

// readmeSignalRow is one row of README's signal table: | `crowdwifi_…` | … |.
var readmeSignalRow = regexp.MustCompile("(?m)^\\| `(crowdwifi_[a-z0-9_]+)` \\|")

// signalCensus lists every disagreement between the signals the binaries
// register and mount, the reasons signalAllow gives, what each ground's
// readers say, and README's signal table.
func signalCensus(families, routes map[string]bool, allow map[string]signalReason, src signalSources, readmeRows map[string]bool) []string {
	var bad []string
	read := func(name string, r signalReason) bool {
		switch r.ground {
		case groundBench:
			return strings.Contains(src.bench, name)
		case groundCI:
			return strings.Contains(src.ci, name)
		case groundReadme:
			return strings.Contains(src.readme, name)
		}
		return false
	}
	check := func(name string) {
		r, ok := allow[name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s has no signalAllow entry: name who reads it, or delete it", name))
		case r.reason == "":
			bad = append(bad, fmt.Sprintf("signalAllow[%q] gives no reason", name))
		case !read(name, r):
			bad = append(bad, fmt.Sprintf("signalAllow[%q] is admitted on %q, and nothing there reads it", name, r.ground))
		}
	}
	for name := range families {
		check(name)
		if !readmeRows[name] {
			bad = append(bad, fmt.Sprintf("%s has no row in README's signal table", name))
		}
	}
	for route := range routes {
		check(route)
	}
	for name := range allow {
		if !families[name] && !routes[name] {
			bad = append(bad, fmt.Sprintf("signalAllow[%q] names no family or route: delete the entry", name))
		}
	}
	for name := range readmeRows {
		if !families[name] {
			bad = append(bad, fmt.Sprintf("README's signal table lists %s, which no binary registers", name))
		}
	}
	sort.Strings(bad)
	return bad
}

func readAll(t *testing.T, paths ...string) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
	}
	return sb.String()
}

// TestSignalsEarnTheirPlace is the census of what the processes serve:
// every crowdwifi_* family any binary registers and every /debug/* route any
// binary mounts has a signalAllow entry naming its reader — the bench, a CI
// step or README — and that reader really names it; every
// family has a row in README's signal table under its full name; and no
// entry or row names a signal that is gone.
func TestSignalsEarnTheirPlace(t *testing.T) {
	bench, err := filepath.Glob(filepath.Join("bench", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var benchSrc []string
	for _, p := range bench {
		if !strings.HasSuffix(p, "_test.go") {
			benchSrc = append(benchSrc, p)
		}
	}
	readme := readAll(t, "README.md")
	src := signalSources{
		bench:  readAll(t, benchSrc...),
		ci:     readAll(t, filepath.Join(".github", "workflows", "ci.yml")),
		readme: readme,
	}
	rows := map[string]bool{}
	for _, m := range readmeSignalRow.FindAllStringSubmatch(readme, -1) {
		rows[m[1]] = true
	}
	families, routes := signals(t)
	for _, msg := range signalCensus(families, routes, signalAllow, src, rows) {
		t.Error(msg)
	}

	// The census itself: a family registered with no reason and no README
	// row fails it twice.
	extra := map[string]bool{"crowdwifi_knob_total": true}
	for k := range families {
		extra[k] = true
	}
	if got := signalCensus(extra, routes, signalAllow, src, rows); len(got) != 2 {
		t.Errorf("an unlisted, undocumented family gave %q, want two complaints", got)
	}
}
