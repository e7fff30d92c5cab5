package gbpolar_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

var (
	// docSpan is an inline code span; docName is a span that names Go
	// code: a possibly qualified identifier, optionally called or
	// composed (`gb.Run(RunSpec{})`, `(*Culled).Emit(degree, workers)`).
	docSpan = regexp.MustCompile("`([^`]+)`")
	docName = regexp.MustCompile(`^\(?\*?([A-Za-z_]\w*(?:\)?\.[A-Za-z_]\w*)*)(?:\(.*\)|\{.*\})?$`)
	// docFile is a span naming a file, not code (`BENCH_seed.json`).
	docFile = regexp.MustCompile(`\.(go|s|md|txt|json|ya?ml|sh|mod|gbcp|pqr|xyzr?)$`)
	// docDeleted marks a line that names code on purpose as gone.
	docDeleted = regexp.MustCompile(`(?i)\b(deleted|removed|retired)\b`)
)

// TestDocsNameDeclaredIdentifiers keeps DESIGN.md and README.md naming
// code that exists. Every backticked camelCase name must be declared by
// some .go file of the repository, or exported by the standard-library
// package that qualifies it (`math.Exp`), unless its line marks it as
// deleted, removed or retired. Fenced code blocks are not checked.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	repo := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			return declare(repo, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	std := stdPackages(t)
	stdNames := map[string]map[string]bool{}
	exportedBy := func(pkg, name string) bool {
		if _, ok := stdNames[pkg]; !ok {
			stdNames[pkg] = map[string]bool{}
			for _, dir := range std[pkg] {
				files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
				for _, f := range files {
					if !strings.HasSuffix(f, "_test.go") {
						if err := declare(stdNames[pkg], f); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		return ast.IsExported(name) && stdNames[pkg][name]
	}

	for _, doc := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		fenced := false
		for i, line := range lines {
			fence := strings.HasPrefix(strings.TrimSpace(line), "```")
			if fence {
				fenced = !fenced
			}
			if fence || fenced {
				lines[i] = ""
			}
		}
		text := strings.Join(lines, "\n")
		for _, m := range docSpan.FindAllStringSubmatchIndex(text, -1) {
			span := text[m[2]:m[3]]
			n := docName.FindStringSubmatch(span)
			if n == nil || docFile.MatchString(span) {
				continue
			}
			line := strings.Count(text[:m[0]], "\n")
			if docDeleted.MatchString(lines[line]) {
				continue
			}
			parts := strings.Split(strings.ReplaceAll(n[1], ").", "."), ".")
			for k, name := range parts {
				if !camel(name) || repo[name] || (k > 0 && exportedBy(parts[0], name)) {
					continue
				}
				t.Errorf("%s:%d: `%s` names %s, which no .go file declares", doc, line+1, span, name)
			}
		}
	}
}

// camel reports a mixed-case name without underscores: lower-case
// words, constants, metric names and notation such as `f_GB` are not Go
// identifiers the docs could mean.
func camel(name string) bool {
	return !strings.Contains(name, "_") &&
		strings.ContainsFunc(name, unicode.IsLower) && strings.ContainsFunc(name, unicode.IsUpper)
}

// declare adds every name path declares: functions, methods, types,
// fields, constants, variables, parameters and := definitions.
func declare(names map[string]bool, path string) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	add := func(ids ...*ast.Ident) {
		for _, id := range ids {
			names[id.Name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			add(n.Name)
		case *ast.TypeSpec:
			add(n.Name)
		case *ast.ValueSpec:
			add(n.Names...)
		case *ast.Field:
			add(n.Names...)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		}
		return true
	})
	return nil
}

// stdPackages maps each standard-library package name to its source
// directories (`rand` is both math/rand and crypto/rand).
func stdPackages(t *testing.T) map[string][]string {
	root := filepath.Join(build.Default.GOROOT, "src")
	out := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		switch d.Name() {
		case "cmd", "internal", "vendor", "testdata":
			return filepath.SkipDir
		}
		out[d.Name()] = append(out[d.Name()], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
