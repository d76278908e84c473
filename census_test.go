package crowdwifi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusAllow names the exported declarations that no non-test file has to
// mention, each with the reason it stays. An entry is "dir.Name",
// "dir.Type.Method" or "dir.*". Interface satisfiers (String, Error, ServeHTTP,
// RoundTrip…) need no entry: methods are matched by name, and those names are
// always selected somewhere.
var censusAllow = map[string]string{
	// Fakes and helpers whose only callers are tests, on purpose.
	"internal/chaos.*":                         "the fault-injection fake four test suites drive; nothing ships with it",
	"internal/mat.EqualApprox":                 "the matrix comparison mat's and cs's tests state their properties with",
	"internal/geo.Trajectory.SampleByDistance": "how the cs, client and cluster tests lay reference points along a drive",
	"internal/client.Outbox.Evicted":           "the fleet tests count what a full outbox dropped",
	// References and paper material.
	"internal/cs.BuildPhi":                "Section 4.2.2's Φ: TestPhiPsiMatchesDirectConstructionOnGridPoints holds BuildSensingMatrix to ΦΨ",
	"internal/cs.BuildPsi":                "Section 4.2.2's Ψ, same test",
	"internal/crowd.EMDawidSkene":         "the paper's reference [10] comparator, kept beside KOS inference",
	"internal/crowd.Variational":          "the paper's reference [10] comparator, variational form",
	"internal/baseline.Skyhook":           "the single-collector Place Lab baseline SkyhookCrowd averages",
	"internal/baseline.FingerprintLocate": "the Place Lab client-side query that rounds out the baseline",
	"internal/traceio.WriteMeasurements":  "the writing half of the -trace format the vehicle reads",
	"internal/traceio.ReadEstimates":      "the reading half of the -out format the vehicle writes",
	// Library-only operations and knobs only tests turn.
	"internal/server.ExportFromDir":     "rebalance from a dead shard's disk: library-only, each part posted to its owner as a move; proven by TestKillOneShard (verify skill)",
	"internal/retry.WithBudget":         "every Doer runs the default budget (ratio 0.5, burst 10); the chaos e2e and doer tests loosen or tighten it",
	"internal/obs.Registry.SumCounters": "how the server, cluster, overload, cs and obs tests read a family's total without scraping",
}

// goFile is one parsed file: where it lives and what its imports are called.
type goFile struct {
	dir     string // slash-separated, relative to the module root; "." for the root
	test    bool
	ast     *ast.File
	imports map[string]string // local name → dir of a package of this module
}

// parseModule parses every .go file of the module, bench/ included (it is a
// second module that imports this one's packages by the same paths).
func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		gf := goFile{
			dir:     filepath.ToSlash(filepath.Dir(p)),
			test:    strings.HasSuffix(p, "_test.go"),
			ast:     f,
			imports: map[string]string{},
		}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ip, "crowdwifi/")
			if ip == "crowdwifi" {
				dir, ok = ".", true
			}
			if !ok {
				continue
			}
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			gf.imports[name] = dir
		}
		files = append(files, gf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recvName is the type name of a method receiver, through any pointer and
// type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestExportedNamesHaveAReader is the census of what the module exports for
// nobody: every exported top-level function, method and type under internal/
// and in crowdwifi.go must be mentioned by some non-test file (bench/ counts)
// beyond its own declaration, or be on censusAllow with a reason. It is
// name-grade, not type-checked: a function or type is matched as pkg.Name
// through the file's imports (or bare inside its own package), a method by its
// name after any selector. That is enough to catch what only tests keep alive.
func TestExportedNamesHaveAReader(t *testing.T) {
	files := parseModule(t)

	type decl struct {
		dir    string
		key    string // dir.Name or dir.Type.Method
		method string // non-empty for methods
	}
	var decls []decl
	own := map[*ast.Ident]bool{} // declaring identifiers and receiver types: not readers
	for _, f := range files {
		if f.test || !(strings.HasPrefix(f.dir, "internal/") || f.dir == ".") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				own[d.Name] = true
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							own[id] = true
						}
						return true
					})
				}
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls = append(decls, decl{dir: f.dir, key: f.dir + "." + d.Name.Name})
				} else if recv := recvName(d.Recv.List[0].Type); recv != "" {
					decls = append(decls, decl{dir: f.dir, key: f.dir + "." + recv + "." + d.Name.Name, method: d.Name.Name})
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, s := range d.Specs {
					ts := s.(*ast.TypeSpec)
					own[ts.Name] = true
					if ts.Name.IsExported() {
						decls = append(decls, decl{dir: f.dir, key: f.dir + "." + ts.Name.Name})
					}
				}
			}
		}
	}

	read := map[string]bool{}    // dir.Name
	methods := map[string]bool{} // method names after a selector
	for _, f := range files {
		if f.test {
			continue
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				methods[x.Sel.Name] = true
				if pkg, ok := x.X.(*ast.Ident); ok {
					if dir, ok := f.imports[pkg.Name]; ok {
						read[dir+"."+x.Sel.Name] = true
					}
				}
				ast.Inspect(x.X, visit) // x.Sel is a field or method, not a bare name
				return false
			case *ast.Ident:
				if !own[x] {
					read[f.dir+"."+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	used := map[string]bool{}
	allowed := func(d decl) bool {
		for _, k := range []string{d.key, d.dir + ".*"} {
			if _, ok := censusAllow[k]; ok {
				used[k] = true
				return true
			}
		}
		return false
	}
	var unread []string
	for _, d := range decls {
		if d.method != "" && methods[d.method] {
			continue
		}
		if d.method == "" && read[d.key] {
			continue
		}
		if !allowed(d) {
			unread = append(unread, d.key)
		}
	}
	sort.Strings(unread)
	for _, k := range unread {
		t.Errorf("%s is exported, but only tests (or nothing) mention it: delete it, unexport it, or add it to censusAllow with its reason", k)
	}
	for k := range censusAllow {
		if !used[k] {
			t.Errorf("censusAllow[%q] allows nothing any more: delete the entry", k)
		}
	}
}

// TestRouterLinksNoStore pins that the router binary links none of the
// store: its non-test imports, followed through every package of this
// module, reach no internal/server, internal/wal or internal/crowd. A dead
// shard's data is exported offline by a process that links the store, and
// the router only posts the parts it is handed.
func TestRouterLinksNoStore(t *testing.T) {
	imports := map[string]map[string]bool{} // dir → dirs of this module it imports
	for _, f := range parseModule(t) {
		if f.test {
			continue
		}
		if imports[f.dir] == nil {
			imports[f.dir] = map[string]bool{}
		}
		for _, dir := range f.imports {
			imports[f.dir][dir] = true
		}
	}
	const root = "cmd/crowdwifi-router"
	if imports[root] == nil {
		t.Fatalf("no package at %s", root)
	}
	via := map[string]string{root: ""} // dir → the dir that imports it
	queue := []string{root}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for dep := range imports[dir] {
			if _, seen := via[dep]; !seen {
				via[dep] = dir
				queue = append(queue, dep)
			}
		}
	}
	if len(via) < 5 {
		t.Fatalf("the router reaches only %d packages of this module: the import walk is broken", len(via))
	}
	for _, banned := range []string{"internal/server", "internal/wal", "internal/crowd"} {
		if _, ok := via[banned]; !ok {
			continue
		}
		chain := []string{banned}
		for d := via[banned]; d != ""; d = via[d] {
			chain = append(chain, d)
		}
		t.Errorf("%s links %s: %s", root, banned, strings.Join(chain, " ← "))
	}
}
