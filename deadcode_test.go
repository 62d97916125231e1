package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the functions under internal/ that no production
// code calls but that tests in another package use as fixtures or oracles.
// Each entry maps "pkg.Func" (or "pkg.Type.Method") to "otherpkg.TestFunc",
// a function in otherpkg's _test.go files that names it. A function that
// only its own package's tests use belongs in that package's _test.go files
// instead.
var testOnlyAllowed = map[string]string{
	"graph.CompleteBipartite":   "spectral.TestLambda2ClosedForms",
	"graph.ErdosRenyi":          "diffusion.TestContinuousDropProperty",
	"graph.G.HasEdge":           "topoparse.TestBuildRandomRegularDeterministic",
	"graph.PathSpectrum":        "spectral.TestEigenSymMatchesPathSpectrum",
	"graph.CycleSpectrum":       "spectral.TestEigenSymMatchesCycleSpectrum",
	"graph.HypercubeSpectrum":   "spectral.TestEigenSymMatchesHypercubeSpectrum",
	"matrix.Identity":           "spectral.TestQLImplicitWithVectors",
	"matrix.NewDenseFrom":       "spectral.TestEigenSymKnown2x2",
	"matrix.Dense.MulVec":       "spectral.TestEigenSymKnown2x2",
	"matrix.Dense.RowSums":      "spectral.TestDiffusionMatrixProperties",
	"matrix.Vector.ApproxEqual": "diffusion.TestFirstOrderMatchesDiffusionMatrix",
}

// implicitMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, sort.Interface, http.Handler, …), so a
// method of that name is live without any identifier in this tree naming it.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true,
}

// TestNoTestOnlyCode fails when a top-level function or method under
// internal/ is named nowhere in non-test code outside its own declaration
// (cmd/, examples/ and e2ebench/ count as callers), unless testOnlyAllowed
// lists it; and when a testOnlyAllowed entry is stale or its test does not
// name the function.
func TestNoTestOnlyCode(t *testing.T) {
	problems, err := deadCodeProblems(".", testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestNoTestOnlyCodeFixture runs the check on a small planted tree: a
// function only its own package's test calls is reported, a cross-package
// fixture passes once allowlisted with the test that uses it, and stale or
// wrong allowlist entries are reported.
func TestNoTestOnlyCodeFixture(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"internal/pkg/pkg.go": `package pkg
type T struct{}
func (T) Used() {}
func (T) String() string { return "" }
func Planted() { Planted() }
func Helper() {}
func Fixture() {}
func init() {}
`,
		"internal/pkg/pkg_test.go":     "package pkg\nfunc TestPlanted() { Planted() }\n",
		"internal/other/other.go":      "package other\nimport \"x/internal/pkg\"\nfunc Run() { pkg.T{}.Used() }\n",
		"internal/other/other_test.go": "package other\nimport \"x/internal/pkg\"\nfunc TestFixture() { pkg.Fixture() }\nfunc TestNone() {}\n",
		"cmd/tool/main.go":             "package main\nimport \"x/internal/other\"\nfunc main() { other.Run() }\n",
		"bench/run.go":                 "package bench\nimport \"x/internal/pkg\"\nvar _ = pkg.Helper\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		allowed map[string]string
		want    []string // one substring per expected problem, in order
	}{
		{nil, []string{"pkg.Fixture: declared", "pkg.Planted: declared"}},
		{map[string]string{"pkg.Fixture": "other.TestFixture"}, []string{"pkg.Planted: declared"}},
		{map[string]string{"pkg.Fixture": "other.TestFixture", "pkg.Planted": "pkg.TestPlanted"},
			[]string{"pkg.Planted: allowlisted for pkg.TestPlanted, a test in its own package"}},
		{map[string]string{"pkg.Fixture": "other.TestNone", "pkg.Planted": "other.TestGone", "pkg.Helper": "other.TestFixture"},
			[]string{"pkg.Fixture: allowlisted for other.TestNone, which does not name it",
				"pkg.Helper: allowlisted as test-only",
				"pkg.Planted: allowlisted for other.TestGone, which does not exist"}},
	} {
		got, err := deadCodeProblems(root, c.allowed)
		if err != nil {
			t.Fatal(err)
		}
		ok := len(got) == len(c.want)
		for i := 0; ok && i < len(got); i++ {
			ok = strings.Contains(got[i], c.want[i])
		}
		if !ok {
			t.Errorf("allowlist %v:\n got  %q\n want %q", c.allowed, got, c.want)
		}
	}
}

// deadCodeProblems scans the tree at root and reports, sorted, every
// test-only function under root/internal that allowed does not list, and
// every allowed entry that is not test-only or whose test is not a function
// in another package's _test.go files that names the function.
func deadCodeProblems(root string, allowed map[string]string) ([]string, error) {
	dead, err := testOnlyFuncs(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	isDead := map[string]bool{}
	for _, name := range dead {
		isDead[name] = true
		if _, ok := allowed[name]; !ok {
			problems = append(problems, name+": declared under internal/ but called only from tests; "+
				"delete it, move it into the _test.go files of the package whose tests use it, "+
				"or allowlist it with the other package's test that needs it")
		}
	}
	for name, test := range allowed {
		pkg, _, _ := strings.Cut(name, ".")
		testPkg, testFunc, _ := strings.Cut(test, ".")
		switch {
		case !isDead[name]:
			problems = append(problems, name+": allowlisted as test-only, but production code names it or it is gone; drop the entry")
		case testPkg == pkg:
			problems = append(problems, fmt.Sprintf("%s: allowlisted for %s, a test in its own package; move it into that package's _test.go files", name, test))
		default:
			names, found, err := testFuncNames(filepath.Join(root, "internal", testPkg), testFunc, name[strings.LastIndex(name, ".")+1:])
			if err != nil {
				return nil, err
			}
			if !found {
				problems = append(problems, fmt.Sprintf("%s: allowlisted for %s, which does not exist", name, test))
			} else if !names {
				problems = append(problems, fmt.Sprintf("%s: allowlisted for %s, which does not name it", name, test))
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// testFuncNames reports whether the _test.go files in dir declare a
// top-level function fn, and whether its body names ident.
func testFuncNames(dir, fn, ident string) (names, found bool, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return false, false, err
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return false, false, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != fn || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == ident {
					names = true
				}
				return !names
			})
			return names, true, nil
		}
	}
	return false, false, nil
}

// testOnlyFuncs parses every non-test Go file under root and returns, as
// sorted "pkg.Func" or "pkg.Type.Method" names, the top-level functions and
// methods declared under root/internal whose name appears as an identifier
// nowhere outside their own declaration. The check is by name, not by type:
// a method named like any identifier elsewhere counts as live.
func testOnlyFuncs(root string) ([]string, error) {
	type decl struct {
		name   string // qualified name reported when dead
		ident  string
		inside int // identifiers named ident within the declaration itself
	}
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg, ok := strings.CutPrefix(filepath.ToSlash(rel), "internal/")
		if !ok {
			return nil
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				if implicitMethods[fd.Name.Name] {
					continue
				}
				name = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			inside := 0
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == fd.Name.Name {
					inside++
				}
				return true
			})
			decls = append(decls, decl{name, fd.Name.Name, inside})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, d := range decls {
		if uses[d.ident] == d.inside {
			dead = append(dead, d.name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// recvType names a method receiver's base type.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
