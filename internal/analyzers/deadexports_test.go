package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestNoDeadExports keeps the module free of exported identifiers nothing
// reaches. It fails on any exported function, method, type or value
// declared in a non-test file under internal/ whose name appears in no
// non-test file of the module (perfbench included) and in no test file of
// another package. The scan is by name, not by type: a name counts as
// referenced wherever it occurs as an identifier, so it errs towards
// keeping, never towards deleting.
//
// Deliberate API carries `//iotml:allow unusedexport -- <why>` in its doc
// comment or on the line above its name.
//
// It is a test rather than an analyzer pass because the framework checks
// one package at a time, and this contract is a property of the whole
// module.
func TestNoDeadExports(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	dead, err := deadExports(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s is referenced only by its own package's tests: delete it, or mark it //iotml:allow unusedexport -- <why>", d)
	}
}

// TestDeadExportsFixture pins the scan's rules on a miniature module: one
// subtest per exported identifier of the fixture, each with its verdict.
func TestDeadExportsFixture(t *testing.T) {
	dead, err := deadExports(filepath.Join("testdata", "unusedexport"))
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	var names []string
	for _, d := range dead {
		name := d[strings.LastIndex(d, " ")+1:]
		flagged[name] = true
		names = append(names, name)
	}
	sort.Strings(names)
	want := []string{"Dead", "DeadConst", "DeadMethod", "GenDead", "List", "OwnTestOnly", "Recursive", "SpecDead", "Unjustified"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("flagged %q, want %q", dead, want)
	}
	for _, c := range []struct {
		name string
		dead bool
		why  string
	}{
		{"Used", false, "called from another package's non-test file"},
		{"UsedByOtherTest", false, "called from another package's test"},
		{"OwnTestOnly", true, "called from its own package's test only"},
		{"Dead", true, "referenced nowhere"},
		{"Allowed", false, "justified allow in its doc"},
		{"Unjustified", true, "an allow without a justification exempts nothing"},
		{"T", false, "instantiated by another package"},
		{"DeadMethod", true, "a method referenced nowhere"},
		{"Recursive", true, "a function's call to itself is not a use"},
		{"List", true, "a type's mention of itself in its own spec is not a use"},
		{"DeadConst", true, "a constant referenced nowhere"},
		{"UsedVar", false, "a variable read by another package"},
		{"GroupedA", false, "covered by the justified allow on its group's doc"},
		{"GroupedB", false, "covered by the justified allow on its group's doc"},
		{"SpecAllowed", false, "justified allow in its own spec doc"},
		{"SpecDead", true, "a sibling spec's allow does not cover it"},
		{"G", false, "a generic type instantiated by another package"},
		{"Get", false, "a generic type's method called by another package"},
		{"GenDead", true, "a generic type's method referenced nowhere"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if flagged[c.name] != c.dead {
				t.Errorf("%s flagged = %v, want %v (%s)", c.name, flagged[c.name], c.dead, c.why)
			}
		})
	}
}

// TestReceiverType: a method's receiver resolves to its base type name
// whatever pointer or type-parameter syntax wraps it, so a method's own
// type never counts as a use inside it.
func TestReceiverType(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"value", "func (T) M() {}", "T"},
		{"pointer", "func (*T) M() {}", "T"},
		{"generic", "func (T[P]) M() {}", "T"},
		{"generic-pointer", "func (*T[P]) M() {}", "T"},
		{"generic-two-params", "func (*T[P, Q]) M() {}", "T"},
		{"named-receiver", "func (t *T[P]) M() {}", "T"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := parser.ParseFile(token.NewFileSet(), "x.go", "package p\n"+c.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			fd := f.Decls[0].(*ast.FuncDecl)
			if got := receiverType(fd.Recv.List[0].Type); got != c.want {
				t.Errorf("receiverType(%s) = %q, want %q", c.src, got, c.want)
			}
		})
	}
	// A receiver expression of no supported shape names no type.
	if got := receiverType(&ast.ArrayType{Elt: ast.NewIdent("T")}); got != "" {
		t.Errorf("receiverType([]T) = %q, want \"\"", got)
	}
}

// exportDecl is one exported top-level declaration under internal/.
type exportDecl struct {
	name string
	dir  string // slash-separated, relative to the scan root
	pos  string // file:line, for the report
}

// deadExports parses every .go file under root (skipping testdata and
// hidden directories) and returns, sorted, "file:line: dir name" for each
// exported declaration under root/internal that no other file reaches.
func deadExports(root string) ([]string, error) {
	fset := token.NewFileSet()
	var decls []exportDecl
	// refs maps a name to the set of places that mention it: the
	// directory of each test file, or "" for any non-test file.
	refs := map[string]map[string]bool{}
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			n := de.Name()
			if path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := filepath.ToSlash(filepath.Dir(rel))
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest && strings.HasPrefix(rel, "internal/") {
			decls = append(decls, exportedDecls(fset, f, dir, rel)...)
		}
		where := ""
		if isTest {
			where = dir
		}
		for _, name := range references(f) {
			if refs[name] == nil {
				refs[name] = map[string]bool{}
			}
			refs[name][where] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, d := range decls {
		reached := false
		for where := range refs[d.name] {
			if where != d.dir {
				reached = true
				break
			}
		}
		if !reached {
			dead = append(dead, fmt.Sprintf("%s: %s %s", d.pos, d.dir, d.name))
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// exportedDecls lists f's exported top-level functions, methods, types,
// variables and constants that carry no justified unusedexport allow.
func exportedDecls(fset *token.FileSet, f *ast.File, dir, file string) []exportDecl {
	var allows []int
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if name, just, ok := parseAllow(c.Text); ok && name == "unusedexport" && just != "" {
				allows = append(allows, fset.Position(c.Pos()).Line)
			}
		}
	}
	line := func(p token.Pos) int { return fset.Position(p).Line }
	// allowed reports whether a directive sits in doc, or on the lines
	// from just above from through the name's own line.
	allowed := func(doc *ast.CommentGroup, from token.Pos, name *ast.Ident) bool {
		lo := line(from) - 1
		if doc != nil {
			lo = line(doc.Pos())
		}
		for _, l := range allows {
			if l >= lo && l <= line(name.Pos()) {
				return true
			}
		}
		return false
	}
	inDoc := func(doc *ast.CommentGroup) bool {
		for _, l := range allows {
			if doc != nil && l >= line(doc.Pos()) && l <= line(doc.End()) {
				return true
			}
		}
		return false
	}
	var out []exportDecl
	add := func(id *ast.Ident) {
		if id.IsExported() {
			out = append(out, exportDecl{name: id.Name, dir: dir, pos: fmt.Sprintf("%s:%d", file, line(id.Pos()))})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !allowed(d.Doc, d.Pos(), d.Name) {
				add(d.Name)
			}
		case *ast.GenDecl:
			if d.Tok == token.IMPORT || inDoc(d.Doc) {
				continue
			}
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if !allowed(s.Doc, s.Pos(), s.Name) {
						add(s.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if !allowed(s.Doc, s.Pos(), n) {
							add(n)
						}
					}
				}
			}
		}
	}
	return out
}

// references returns every identifier f mentions outside the declarations
// that introduce it: a function's own name and receiver type inside that
// function, and a type or value spec's own names inside that spec, do not
// count as uses unless they are selected (pkg.Name, x.Name).
func references(f *ast.File) []string {
	var names []string
	var collect func(n ast.Node, self map[string]bool)
	collect = func(n ast.Node, self map[string]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				// A qualified or field name is never the declaration's own
				// (x.inner.Foo inside method Foo is a use).
				names = append(names, x.Sel.Name)
				collect(x.X, self)
				return false
			case *ast.Ident:
				if !self[x.Name] {
					names = append(names, x.Name)
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			self := map[string]bool{d.Name.Name: true}
			if d.Recv != nil && len(d.Recv.List) == 1 {
				self[receiverType(d.Recv.List[0].Type)] = true
			}
			collect(d, self)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				self := map[string]bool{}
				switch s := s.(type) {
				case *ast.TypeSpec:
					self[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self[n.Name] = true
					}
				}
				collect(s, self)
			}
		}
	}
	return names
}

// receiverType returns the base type name of a method receiver: T in T,
// *T, T[P] and *T[P].
func receiverType(e ast.Expr) string {
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
