package crowdwifi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// censusAllow names the exported declarations that no non-test file has to
// read, each with the reason it stays. An entry is "dir.Name",
// "dir.Type.Method" or "dir.*". Interface satisfiers (String, Error, ServeHTTP,
// RoundTrip…) need no entry: a method that satisfies a declared interface is
// read through it.
var censusAllow = map[string]string{
	// Fakes and helpers whose only callers are tests, on purpose.
	"internal/chaos.*":                         "the fault-injection fake four test suites drive; nothing ships with it",
	"internal/geo.Trajectory.SampleByDistance": "how the cs, client and cluster tests lay reference points along a drive",
	"internal/client.Outbox.Evicted":           "the fleet tests count what a full outbox dropped",
	// References and paper material.
	"internal/cs.BuildPhi":           "Section 4.2.2's Φ: TestPhiPsiMatchesDirectConstructionOnGridPoints holds BuildSensingMatrix to ΦΨ",
	"internal/cs.BuildPsi":           "Section 4.2.2's Ψ, same test",
	"internal/crowd.EMDawidSkene":    "the paper's reference [10] comparator, kept beside KOS inference",
	"internal/crowd.Variational":     "the paper's reference [10] comparator, variational form",
	"internal/baseline.Skyhook":      "the single-collector Place Lab baseline SkyhookCrowd averages",
	"internal/traceio.ReadEstimates": "the reading half of the -out format the vehicle writes",
	// Library-only operations and knobs only tests turn.
	"internal/server.ExportFromDir":     "rebalance from a dead shard's disk: library-only, each part posted to its owner as a move; proven by TestKillOneShard (verify skill)",
	"internal/retry.WithBudget":         "every Doer runs the default budget (ratio 0.5, burst 10); the chaos e2e and doer tests loosen or tighten it",
	"internal/obs.Registry.SumCounters": "how the server, cluster, overload, cs and obs tests read a family's total without scraping",
}

// listedPackage is one package as `go list -json` describes it.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string // std: its compiled export data
	Standard   bool
}

// loadedModule is every non-test package of this module and of bench/ (a
// second module that imports this one's packages by the same paths),
// type-checked from source, and the std packages they import, read from
// export data.
type loadedModule struct {
	own  []*types.Package // this module's and bench/'s, in dependency order
	std  []*types.Package
	info *types.Info // uses and types of every non-test file of own
	// decls holds the identifiers that name a method's receiver type: they
	// declare the method, they do not read the type.
	decls   map[*ast.Ident]bool
	imports map[string][]string // import path → what it imports
	files   []moduleFile
}

// moduleFile is one parsed non-test file of this module or of bench/.
type moduleFile struct {
	dir string // its package's import path less "crowdwifi/"; "crowdwifi" for the root
	ast *ast.File
}

var (
	moduleOnce sync.Once
	module     *loadedModule
	moduleErr  error
)

// loadModule lists both modules with `go list -deps -export -json` and
// type-checks each of their packages once, in dependency order; std comes
// through go/importer from the export data go list names.
func loadModule(t *testing.T) *loadedModule {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

func typeCheckModule() (*loadedModule, error) {
	var listed []listedPackage
	for _, dir := range []string{".", "bench"} {
		out, err := exec.Command("go", "list", "-C", dir, "-deps", "-export", "-json", "./...").Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			listed = append(listed, p)
		}
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	m := &loadedModule{
		info:    &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		decls:   map[*ast.Ident]bool{},
		imports: map[string][]string{},
	}
	own := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := own[path]; ok {
			return p, nil
		}
		return stdImporter.Import(path)
	})}
	for _, p := range listed {
		if _, done := m.imports[p.ImportPath]; done {
			continue // a package of this module that bench/ lists again
		}
		m.imports[p.ImportPath] = p.Imports
		if p.Standard {
			pkg, err := stdImporter.Import(p.ImportPath)
			if err != nil {
				return nil, err
			}
			m.std = append(m.std, pkg)
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							m.decls[id] = true
						}
						return true
					})
				}
			}
			files = append(files, f)
			m.files = append(m.files, moduleFile{dir: strings.TrimPrefix(p.ImportPath, "crowdwifi/"), ast: f})
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, m.info)
		if err != nil {
			return nil, err
		}
		own[p.ImportPath] = pkg
		m.own = append(m.own, pkg)
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// censusDir is the key prefix of a package of this module: its directory
// relative to the module root, "." for the root; "" when the census does
// not count the package's declarations (cmd/, examples/, bench/).
func censusDir(pkg *types.Package) string {
	if pkg.Path() == "crowdwifi" {
		return "."
	}
	if dir, ok := strings.CutPrefix(pkg.Path(), "crowdwifi/"); ok && strings.HasPrefix(dir, "internal/") {
		return dir
	}
	return ""
}

// TestExportedNamesHaveAReader is the census of what the module exports for
// nobody: every exported top-level function, method and type under internal/
// and in crowdwifi.go must be read by some non-test file (bench/ counts)
// beyond its own declaration, or be on censusAllow with a reason. It is
// type-checked: a name is read where a use resolves to its object, so a
// method only tests call is caught even when another type's method of that
// name is called. A method also counts as read when its type satisfies,
// through it, an interface this module or a std package it imports declares
// (String, Error, ServeHTTP, Less…): the call is made through the interface.
func TestExportedNamesHaveAReader(t *testing.T) {
	m := loadModule(t)

	type decl struct {
		dir, key string // key: dir.Name or dir.Type.Method
		obj      types.Object
		recv     *types.Named // for methods
	}
	var decls []decl
	for _, pkg := range m.own {
		dir := censusDir(pkg)
		if dir == "" {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			if _, isFunc := obj.(*types.Func); obj.Exported() && (isFunc || isType) {
				decls = append(decls, decl{dir: dir, key: dir + "." + name, obj: obj})
			}
			if !isType || tn.IsAlias() {
				continue // an alias's methods are its target's
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					decls = append(decls, decl{dir: dir, key: dir + "." + name + "." + fn.Name(), obj: fn, recv: named})
				}
			}
		}
	}

	read := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		if m.decls[id] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		read[obj] = true
	}

	// Every interface with methods that the module or a std package it
	// imports declares, by method name.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, pkgs := range [][]*types.Package{m.own, m.std} {
		for _, pkg := range pkgs {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
	}
	for _, tv := range m.info.Types { // interface literals in the module's code
		if it, ok := tv.Type.(*types.Interface); ok {
			addIface(it)
		}
	}
	satisfies := func(d decl) bool {
		for _, it := range ifaces[d.obj.Name()] {
			if types.Implements(d.recv, it) || types.Implements(types.NewPointer(d.recv), it) {
				return true
			}
		}
		return false
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
		if read[d.obj] || (d.recv != nil && satisfies(d)) {
			continue
		}
		if !allowed(d) {
			unread = append(unread, d.key)
		}
	}
	sort.Strings(unread)
	for _, k := range unread {
		t.Errorf("%s is exported, but only tests (or nothing) read it: delete it, unexport it, or add it to censusAllow with its reason", k)
	}
	for k := range censusAllow {
		if !used[k] {
			t.Errorf("censusAllow[%q] allows nothing any more: delete the entry", k)
		}
	}
}

// TestRouterLinksNoStore pins that the router binary links none of the
// store: its imports, followed through every package the build links,
// reach no internal/server, internal/wal or internal/crowd. A dead shard's
// data is exported offline by a process that links the store, and the
// router only posts the parts it is handed.
func TestRouterLinksNoStore(t *testing.T) {
	imports := loadModule(t).imports
	const root = "crowdwifi/cmd/crowdwifi-router"
	if imports[root] == nil {
		t.Fatalf("no package at %s", root)
	}
	via := map[string]string{root: ""} // path → the path that imports it
	queue := []string{root}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		for _, dep := range imports[path] {
			if _, seen := via[dep]; !seen {
				via[dep] = path
				queue = append(queue, dep)
			}
		}
	}
	if len(via) < 5 {
		t.Fatalf("the router reaches only %d packages: the import walk is broken", len(via))
	}
	for _, banned := range []string{"crowdwifi/internal/server", "crowdwifi/internal/wal", "crowdwifi/internal/crowd"} {
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
