//go:build !race

package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethodNames are method names an interface fixes (fmt.Stringer,
// error, flag.Value, json.Marshaler and Unmarshaler, sort.Interface,
// rand.Source): such a method is called through the interface, so no
// identifier in the module names the concrete method.
var interfaceMethodNames = map[string]bool{
	"String": true, "Error": true, "Set": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
	"Seed": true, "Int63": true,
}

// uncalledExportAllowlist names the exports that stay although only
// their own package's tests use them, each with the reason it stays.
var uncalledExportAllowlist = map[string]string{
	"internal/core.Labeling.Validate":  "oracle: core's tests check every labeling TIMER returns (unique labels, each lp part a PE)",
	"internal/bench.Results.StripPerf": "oracle: bench's golden tests compare results without their timing fields",
}

// TestNoUncalledExports fails when an exported function, method, type,
// constant or package-level variable declared under internal/ or cmd/
// is used neither by a non-test file nor by another package's tests:
// code that only its own tests call is code the program does not need.
// perfbench/ is its own module but calls into internal/, so its
// non-test files count as callers. The facade (repro.go), struct
// fields (encoding/json reads them by reflection), the methods named
// in interfaceMethodNames and uncalledExportAllowlist are exempt. The
// file is left out of -race builds: the scan runs no concurrent code
// for the detector to check, and CI's lint job runs it.
func TestNoUncalledExports(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listedPackage struct {
		Dir, ImportPath                    string
		Standard                           bool
		GoFiles, TestGoFiles, XTestGoFiles []string
	}
	var pkgs []listedPackage // dependencies before their dependents
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	parse := func(dir string, names []string) []*ast.File {
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	std := importer.Default()
	checked := map[string]*types.Package{}
	used := map[types.Object]bool{}
	// check type-checks one package and marks what its files use. A test
	// build's uses of its own package do not count, and its type errors
	// are tolerated: it may see another module package compiled against
	// the package without its test files.
	check := func(path string, files []*ast.File, own *types.Package, test bool) *types.Package {
		conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
			if own != nil && p == own.Path() {
				return own, nil
			}
			if pkg := checked[p]; pkg != nil {
				return pkg, nil
			}
			return std.Import(p)
		})}
		if test {
			conf.Error = func(error) {}
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil && !test {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		for _, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj.Pkg() != nil && !(test && strings.TrimSuffix(path, "_test") == obj.Pkg().Path()) {
				used[obj] = true
			}
		}
		return pkg
	}

	for _, p := range pkgs {
		checked[p.ImportPath] = check(p.ImportPath, parse(p.Dir, p.GoFiles), nil, false)
	}
	bench, err := filepath.Glob(filepath.Join("perfbench", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var benchFiles []string
	for _, f := range bench {
		if !strings.HasSuffix(f, "_test.go") {
			benchFiles = append(benchFiles, filepath.Base(f))
		}
	}
	check("repro/perfbench", parse("perfbench", benchFiles), nil, false)
	for _, p := range pkgs {
		own := checked[p.ImportPath]
		if len(p.TestGoFiles) > 0 {
			files := parse(p.Dir, append(append([]string{}, p.GoFiles...), p.TestGoFiles...))
			own = check(p.ImportPath, files, nil, true)
		}
		if len(p.XTestGoFiles) > 0 {
			check(p.ImportPath+"_test", parse(p.Dir, p.XTestGoFiles), own, true)
		}
	}

	var dead []string
	allowed := map[string]bool{}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.ImportPath, "repro/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		report := func(obj types.Object, name string) {
			key := rel + "." + name
			if used[obj] {
				return
			}
			if uncalledExportAllowlist[key] != "" {
				allowed[key] = true
			} else {
				dead = append(dead, key)
			}
		}
		scope := checked[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !interfaceMethodNames[m.Name()] {
					report(m, name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no non-test file and no other package's test uses it; delete it, or move it into a _test.go file", d)
	}
	for key := range uncalledExportAllowlist {
		if !allowed[key] {
			t.Errorf("%s: allowlisted, but it is gone or has a caller now; drop its entry", key)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
