package crowdwifi

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// A flag earns its place on one of four grounds. Its flagAllow entry names
// the ground and then says how the flag meets it.
const (
	// admitSet: CI, the bench or another binary sets it.
	admitSet = "set"
	// admitPlace: it names where the process listens or connects, where it
	// keeps state, or who it is.
	admitPlace = "place"
	// admitInput: it is an input or output of the simulated drive or the
	// experiments.
	admitInput = "input"
	// admitTradeOff: it picks a deployment trade-off that DESIGN.md's
	// "Settings" section names.
	admitTradeOff = "trade-off"
)

type flagReason struct{ admit, reason string }

// flagAllow is every flag of every cmd/* binary, keyed "binary -name", with
// the ground it is admitted on. A setting with no entry here is a constant.
var flagAllow = map[string]flagReason{
	"crowdwifi-server -addr":            {admitPlace, "where the API listens; the bench passes 127.0.0.1:0 and reads the bound port from the log"},
	"crowdwifi-server -merge-radius":    {admitTradeOff, "fusing two nearby APs into one against splitting one AP into two"},
	"crowdwifi-server -aggregate-every": {admitTradeOff, "cycle cadence against lookup freshness; the bench and CI set it"},
	"crowdwifi-server -metrics-addr":    {admitPlace, "where the debug surface listens when the API port is public"},
	"crowdwifi-server -data-dir":        {admitPlace, "where the store keeps its log and snapshots; the bench and CI set it"},
	"crowdwifi-server -fsync":           {admitTradeOff, "ack-is-durable against append throughput"},
	"crowdwifi-server -snapshot-every":  {admitTradeOff, "snapshot cost against replay length at boot"},
	"crowdwifi-server -trace-sample":    {admitTradeOff, "tracing cost against trace coverage"},
	"crowdwifi-server -shard-id":        {admitPlace, "who the shard is; the bench and CI set it"},
	"crowdwifi-server -peers":           {admitSet, "the bench and CI pass the member list every shard builds its ring from"},
	"crowdwifi-server -log-level":       {admitSet, "CI's cluster job sets warn"},
	"crowdwifi-server -version":         {admitPlace, "who it is: the build it was stamped with"},

	"crowdwifi-router -addr":         {admitPlace, "where the router listens; the bench and CI set it"},
	"crowdwifi-router -peers":        {admitSet, "the bench and CI pass the shards' id=url pairs"},
	"crowdwifi-router -metrics-addr": {admitPlace, "where the debug surface listens when the API port is public"},
	"crowdwifi-router -trace-sample": {admitTradeOff, "tracing cost against trace coverage"},
	"crowdwifi-router -log-level":    {admitSet, "CI's cluster job sets warn"},
	"crowdwifi-router -version":      {admitPlace, "who it is: the build it was stamped with"},

	"crowdwifi-vehicle -id":             {admitPlace, "who the vehicle is; the server keys reliability by it"},
	"crowdwifi-vehicle -server":         {admitPlace, "where it connects: the crowd-server or router it uploads to"},
	"crowdwifi-vehicle -samples":        {admitInput, "how many RSS samples the simulated drive collects"},
	"crowdwifi-vehicle -seed":           {admitInput, "the simulated drive's seed"},
	"crowdwifi-vehicle -segment":        {admitInput, "the road segment its uploads name"},
	"crowdwifi-vehicle -spammer":        {admitInput, "the adversary of Section 5: answer tasks at random"},
	"crowdwifi-vehicle -trace":          {admitInput, "replay a measurement CSV instead of simulating the drive"},
	"crowdwifi-vehicle -out":            {admitInput, "where the drive's AP estimates are written as CSV"},
	"crowdwifi-vehicle -metrics-addr":   {admitPlace, "where the run's debug surface listens"},
	"crowdwifi-vehicle -outbox-cap":     {admitTradeOff, "memory against uploads kept through an outage"},
	"crowdwifi-vehicle -drain-timeout":  {admitTradeOff, "exit latency against uploads delivered at shutdown"},
	"crowdwifi-vehicle -retry-attempts": {admitTradeOff, "load on a sick server against delivery per request"},
	"crowdwifi-vehicle -trace-sample":   {admitTradeOff, "tracing cost against trace coverage"},
	"crowdwifi-vehicle -batch":          {admitTradeOff, "round trips against batch size on an outbox drain"},
	"crowdwifi-vehicle -log-level":      {admitSet, "the spelling CI sets on the server and router, parsed by the same obs.ParseLevel"},
	"crowdwifi-vehicle -version":        {admitPlace, "who it is: the build it was stamped with"},

	"crowdwifi-exp -seed":         {admitInput, "the experiments' seed"},
	"crowdwifi-exp -trials":       {admitInput, "trial count per point of a figure"},
	"crowdwifi-exp -quick":        {admitInput, "shrunk sweeps for a smoke run; its own tests run it"},
	"crowdwifi-exp -metrics-addr": {admitPlace, "where the run's debug surface listens"},
	"crowdwifi-exp -log-level":    {admitSet, "the spelling CI sets on the server and router, parsed by the same obs.ParseLevel"},
	"crowdwifi-exp -version":      {admitPlace, "who it is: the build it was stamped with"},
}

// flagDefiners are the flag package's defining functions, each with the
// index of its name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0,
	"Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1, "IntVar": 1,
	"StringVar": 1, "TextVar": 1, "Uint64Var": 1, "UintVar": 1, "Var": 1,
}

// cmdFlags parses every non-test file under cmd/ and returns the flags each
// binary defines on the flag package's command line, as "binary -name".
func cmdFlags(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, p := range files {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(p))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			at, ok := flagDefiners[sel.Sel.Name]
			if !ok {
				return true
			}
			var name string
			if lit, ok := call.Args[at].(*ast.BasicLit); ok {
				name, _ = strconv.Unquote(lit.Value)
			}
			if name == "" {
				t.Errorf("%s: flag.%s names its flag with a non-literal", fset.Position(call.Pos()), sel.Sel.Name)
				return true
			}
			flags[bin+" -"+name] = true
			return true
		})
	}
	return flags
}

// readmeFlagRow is one row of README's flag table: | `-name` | binaries | … |.
var readmeFlagRow = regexp.MustCompile("(?m)^\\| `(-[a-z-]+)` \\| ([a-z, ]+) \\|")

// readmeFlags returns the flags README's flag table lists, as "binary -name".
func readmeFlags(readme string) map[string]bool {
	out := map[string]bool{}
	for _, m := range readmeFlagRow.FindAllStringSubmatch(readme, -1) {
		for _, bin := range strings.Split(m[2], ",") {
			out["crowdwifi-"+strings.TrimSpace(bin)+" "+m[1]] = true
		}
	}
	return out
}

// flagCensus lists every disagreement between the flags the binaries define,
// the reasons flagAllow gives, and README's flag table.
func flagCensus(flags map[string]bool, allow map[string]flagReason, readme map[string]bool) []string {
	var bad []string
	for k := range flags {
		r, ok := allow[k]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s has no flagAllow entry: give it its ground and reason, or make it the constant it defaults to", k))
		case r.reason == "" || (r.admit != admitSet && r.admit != admitPlace && r.admit != admitInput && r.admit != admitTradeOff):
			bad = append(bad, fmt.Sprintf("flagAllow[%q] = %+v: want one of set, place, input, trade-off and a reason", k, r))
		}
		if !readme[k] {
			bad = append(bad, fmt.Sprintf("%s is missing from README's flag table", k))
		}
	}
	for k := range allow {
		if !flags[k] {
			bad = append(bad, fmt.Sprintf("flagAllow[%q] names no flag: delete the entry", k))
		}
	}
	for k := range readme {
		if !flags[k] {
			bad = append(bad, fmt.Sprintf("README's flag table lists %s, which no binary defines", k))
		}
	}
	sort.Strings(bad)
	return bad
}

// TestFlagsEarnTheirPlace is the census of the binaries' command lines: every
// flag of every cmd/* binary has a flagAllow entry saying why it exists and a
// row in README's flag table, and neither lists a flag that is gone.
func TestFlagsEarnTheirPlace(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	flags := cmdFlags(t)
	for _, msg := range flagCensus(flags, flagAllow, readmeFlags(string(readme))) {
		t.Error(msg)
	}
	if len(flags) != len(flagAllow) {
		t.Errorf("%d flags, %d flagAllow entries", len(flags), len(flagAllow))
	}

	// The census itself: a flag added with no reason, or with no README row,
	// fails it.
	extra := map[string]bool{"crowdwifi-server -knob": true}
	for k := range flags {
		extra[k] = true
	}
	if got := flagCensus(extra, flagAllow, readmeFlags(string(readme))); len(got) != 2 {
		t.Errorf("an unreasoned, undocumented flag gave %q, want two complaints", got)
	}
}
