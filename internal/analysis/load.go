package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package of the target module.
type Package struct {
	// Path is the package's import path (module path + directory).
	Path string
	// Dir is the absolute directory the files came from.
	Dir string
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks a set of module-local packages using only
// the standard library: module-internal imports resolve to the loaded set,
// and everything else (the standard library itself) is type-checked from
// source via go/importer's "source" compiler. go.mod therefore stays
// dependency-free — no golang.org/x/tools.
type Loader struct {
	Fset *token.FileSet

	std  types.ImporterFrom
	pkgs map[string]*pkgState
}

type pkgState struct {
	pkg      *Package
	checking bool
	done     bool
	err      error
}

// NewLoader creates a loader with a fresh FileSet. A single loader caches
// type-checked standard-library packages across Load calls, so tests load
// many small package sets through one loader.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*pkgState),
	}
}

// LoadModule discovers every package under the module rooted at or above
// dir (the directory containing go.mod), parses its non-test files, and
// type-checks the lot. Packages are returned sorted by import path.
func (l *Loader) LoadModule(dir string) ([]*Package, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != root && skipDirName(d.Name()) {
			return filepath.SkipDir
		}
		files, err := goSources(p)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		if err := l.add(imp, p); err != nil {
			return err
		}
		paths = append(paths, imp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l.checkAll(paths)
}

// skipDirName reports whether a directory subtree is never part of a
// package set: hidden and underscore-prefixed trees, vendor, and —
// at ANY nesting depth — testdata. Golden corpora under testdata
// compile only against their own corpus import paths (see
// golden_test.go); loading them as module packages would both fail
// type-checking and leak corpus findings into module runs.
func skipDirName(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
		name == "testdata" || name == "vendor"
}

// LoadDirs loads an explicit importPath → directory set (the golden-test
// corpora): every listed package is parsed and type-checked, with imports
// among the set resolved internally. Only each listed directory's own
// files become the package — nested trees (testdata especially) are
// never picked up; TestLoadDirsSkipsNestedTestdata pins this.
func (l *Loader) LoadDirs(dirs map[string]string) ([]*Package, error) {
	var paths []string
	for imp := range dirs {
		paths = append(paths, imp)
	}
	sort.Strings(paths)
	for _, imp := range paths {
		if err := l.add(imp, dirs[imp]); err != nil {
			return nil, err
		}
	}
	return l.checkAll(paths)
}

// add parses a package directory and registers it for type-checking.
func (l *Loader) add(importPath, dir string) error {
	if _, ok := l.pkgs[importPath]; ok {
		return fmt.Errorf("analysis: duplicate package %q", importPath)
	}
	names, err := goSources(dir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("analysis: no Go sources in %s", dir)
	}
	pkg := &Package{Path: importPath, Dir: dir}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg.Files = append(pkg.Files, f)
	}
	l.pkgs[importPath] = &pkgState{pkg: pkg}
	return nil
}

// checkAll type-checks the named packages (dependencies first, on demand)
// and returns them sorted by import path.
func (l *Loader) checkAll(paths []string) ([]*Package, error) {
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		if _, err := l.ImportFrom(p, "", 0); err != nil {
			return nil, err
		}
		out = append(out, l.pkgs[p].pkg)
	}
	return out, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom resolves module-local packages from the loaded set and
// defers everything else to the standard-library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	st, ok := l.pkgs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	if st.done {
		return st.pkg.Types, st.err
	}
	if st.checking {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	st.checking = true
	defer func() { st.checking = false; st.done = true }()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, st.pkg.Files, info)
	st.pkg.Types = tpkg
	st.pkg.Info = info
	if len(typeErrs) > 0 {
		st.err = fmt.Errorf("analysis: type errors in %s: %v", path, typeErrs[0])
	}
	return tpkg, st.err
}

// goSources lists, in sorted order, the non-test .go files of dir that
// `go build` compiles for the host: go/build's matcher applies the
// GOOS/GOARCH file-name suffixes and the //go:build constraints, so a
// file and its build-tag twin (kernels_amd64.go, kernels_other.go) are
// never type-checked together, and `//go:build ignore` files stay out.
func goSources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns
// the module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		d = parent
	}
}
