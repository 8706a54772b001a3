package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked unit ready for analysis. In-package
// test files are merged into their package's unit (so tag-gated *_test.go
// files are analyzed under the right -tags); external _test packages load
// as their own unit with IsXTest set.
type Package struct {
	// ImportPath is the package's import path; external test packages get
	// the "_test"-suffixed path the compiler uses.
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	IsXTest    bool
}

// LoadConfig parameterizes Load.
type LoadConfig struct {
	// Dir is the directory go list runs in ("" = current directory).
	Dir string
	// Tags are extra build tags (loadsmoke, scalesmoke) applied to file
	// selection, exactly like `go build -tags`.
	Tags []string
}

// Load resolves patterns with `go list`, then parses and type-checks every
// matched package — production and test files — from source. Dependencies
// outside the module resolve through the standard library's source
// importer, so the whole load is hermetic: no module proxy, no export
// data, no network.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	// The source importer consults the global build context; cgo stays off
	// so stdlib packages select their pure-Go variants (the module itself
	// is pure Go, so this changes nothing for local packages).
	build.Default.CgoEnabled = false

	modPath, modRoot, err := moduleInfo(cfg.Dir)
	if err != nil {
		return nil, err
	}
	targets, err := goList(cfg, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		tags:    cfg.Tags,
		modPath: modPath,
		modRoot: modRoot,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}

	var out []*Package
	order := topoSort(targets)
	for _, t := range order {
		merged, err := ld.checkFiles(t.ImportPath, t.Dir, append(append([]string{}, t.GoFiles...), t.TestGoFiles...), true)
		if err != nil {
			return nil, err
		}
		// Register the merged variant as the import target so external
		// test packages (and later targets) see in-package test helpers.
		ld.cache[t.ImportPath] = merged.Types
		out = append(out, merged)
	}
	// An external test package may import packages that import the one it
	// tests (a legal test-only cycle), so external tests are checked once
	// every merged variant is registered: each then sees one consistent
	// instance of every package.
	for _, t := range order {
		if len(t.XTestGoFiles) > 0 {
			xt, err := ld.checkFiles(t.ImportPath+"_test", t.Dir, t.XTestGoFiles, true)
			if err != nil {
				return nil, err
			}
			xt.IsXTest = true
			out = append(out, xt)
		}
	}
	return out, nil
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	Error        *struct{ Err string }
}

func goList(cfg LoadConfig, patterns []string) ([]*listPkg, error) {
	args := []string{"list", "-json"}
	if len(cfg.Tags) > 0 {
		args = append(args, "-tags", strings.Join(cfg.Tags, ","))
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(outBytes))
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by iotml-lint", p.ImportPath)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func moduleInfo(dir string) (path, root string, err error) {
	cmd := exec.Command("go", "list", "-m", "-json")
	cmd.Dir = dir
	outBytes, err := cmd.Output()
	if err != nil {
		return "", "", fmt.Errorf("go list -m: %v", err)
	}
	var m struct{ Path, Dir string }
	if err := json.Unmarshal(outBytes, &m); err != nil {
		return "", "", fmt.Errorf("decoding go list -m output: %v", err)
	}
	return m.Path, m.Dir, nil
}

// topoSort orders targets so every target is checked after the targets it
// (or its in-package test files) imports: the merged test-inclusive variant
// of a dependency must be registered before a dependent resolves it.
// External test imports add no edge — Load checks external tests last.
// Ties and any residue break in path order, so the load order — like
// everything else in this repo — is deterministic.
func topoSort(targets []*listPkg) []*listPkg {
	byPath := make(map[string]*listPkg, len(targets))
	for _, t := range targets {
		byPath[t.ImportPath] = t
	}
	indeg := make(map[string]int, len(targets))
	dependents := make(map[string][]string, len(targets))
	for _, t := range targets {
		indeg[t.ImportPath] += 0
		seen := map[string]bool{}
		for _, imp := range concat(t.Imports, t.TestImports) {
			if imp == t.ImportPath || seen[imp] || byPath[imp] == nil {
				continue
			}
			seen[imp] = true
			indeg[t.ImportPath]++
			dependents[imp] = append(dependents[imp], t.ImportPath)
		}
	}
	var ready []string
	for p, d := range indeg {
		if d == 0 {
			ready = append(ready, p)
		}
	}
	sort.Strings(ready)
	var order []*listPkg
	for len(ready) > 0 {
		p := ready[0]
		ready = ready[1:]
		order = append(order, byPath[p])
		var freed []string
		for _, dep := range dependents[p] {
			if indeg[dep]--; indeg[dep] == 0 {
				freed = append(freed, dep)
			}
		}
		sort.Strings(freed)
		ready = mergeSorted(ready, freed)
	}
	if len(order) < len(targets) { // cycle residue: append deterministically
		var rest []string
		for p, d := range indeg {
			if d > 0 {
				rest = append(rest, p)
			}
		}
		sort.Strings(rest)
		for _, p := range rest {
			order = append(order, byPath[p])
		}
	}
	return order
}

func concat(ss ...[]string) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s...)
	}
	return out
}

func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] <= b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// loader resolves imports during type checking: module-local packages are
// type-checked recursively from source (honoring the configured build
// tags), everything else goes through the stdlib source importer.
type loader struct {
	fset    *token.FileSet
	tags    []string
	modPath string
	modRoot string
	std     types.ImporterFrom
	cache   map[string]*types.Package
	loading map[string]bool
}

// Import implements types.Importer.
//
//iotml:allow unusedexport -- satisfies types.Importer, called by go/types only
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if l.loading[path] {
			return nil, fmt.Errorf("import cycle through test files at %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		pkg, err := l.loadLocal(path)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg.Types
		return pkg.Types, nil
	}
	p, err := l.std.ImportFrom(path, dir, mode)
	if err != nil {
		return nil, err
	}
	l.cache[path] = p
	return p, nil
}

// loadLocal type-checks the production files of a module-local package that
// was pulled in as a dependency (when linting a sub-pattern rather than
// ./..., which registers every local package up front in topological
// order).
func (l *loader) loadLocal(path string) (*Package, error) {
	dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	bctx := build.Default
	bctx.BuildTags = append([]string{}, l.tags...)
	bp, err := bctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("resolving %s: %v", path, err)
	}
	return l.checkFiles(path, dir, bp.GoFiles, false)
}

// checkFiles parses and type-checks the named files as one package. With
// fullInfo the returned Package carries the type facts analyzers consume;
// dependency loads skip them.
func (l *loader) checkFiles(path, dir string, names []string, fullInfo bool) (*Package, error) {
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var info *types.Info
	if fullInfo {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err)
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
