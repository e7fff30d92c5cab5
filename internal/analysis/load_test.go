package analysis

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeTree writes a file under root, creating parents.
func writeTree(t *testing.T, root, rel, src string) {
	t.Helper()
	p := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// brokenTestdataSrc would fail type-checking (and, were it ever
// loaded, carry findings) — reaching it at all is the regression.
const brokenTestdataSrc = "package broken\n\nfunc Bad() int { return undefinedSymbol }\n"

// TestLoadModuleSkipsNestedTestdata: testdata trees at any depth never
// become module packages — the module walk must neither fail on their
// (corpus-import-path) sources nor surface findings from them.
func TestLoadModuleSkipsNestedTestdata(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, "go.mod", "module tdmod\n\ngo 1.24\n")
	writeTree(t, root, "kern/kern.go", "package kern\n\n// Double doubles.\nfunc Double(x int) int { return 2 * x }\n")
	writeTree(t, root, "kern/testdata/src/broken/broken.go", brokenTestdataSrc)
	writeTree(t, root, "testdata/top.go", brokenTestdataSrc)

	l := NewLoader()
	pkgs, err := l.LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule walked into a testdata tree: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "tdmod/kern" {
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		t.Fatalf("loaded %v, want exactly [tdmod/kern]", paths)
	}
	if findings := Analyze(l.Fset, pkgs, All); len(findings) != 0 {
		t.Fatalf("testdata sources leaked findings into the module run: %v", findings)
	}
}

// TestLoadDirsSkipsNestedTestdata: a directory loaded directly (the
// gblint corpus path) contributes only its own files; a nested
// testdata tree below it stays invisible.
func TestLoadDirsSkipsNestedTestdata(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, "ok.go", "package ok\n\n// Id is the identity.\nfunc Id(x int) int { return x }\n")
	writeTree(t, dir, "testdata/broken.go", brokenTestdataSrc)

	l := NewLoader()
	pkgs, err := l.LoadDirs(map[string]string{"corpus/ok": dir})
	if err != nil {
		t.Fatalf("LoadDirs reached into the nested testdata tree: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("loaded %d packages / %d files, want exactly 1 package with 1 file",
			len(pkgs), len(pkgs[0].Files))
	}
	if findings := Analyze(l.Fset, pkgs, All); len(findings) != 0 {
		t.Fatalf("nested testdata leaked findings: %v", findings)
	}
}

// TestLoadSelectsBuildFiles: the loader type-checks the files `go build`
// compiles for the host, so a GOARCH-suffixed file and its //go:build
// twin (testdata/src/buildtags) load as one package with one declaration,
// and a //go:build ignore file stays out.
func TestLoadSelectsBuildFiles(t *testing.T) {
	l := NewLoader()
	pkgs, err := l.LoadDirs(map[string]string{"corpus/buildtags": "testdata/src/buildtags"})
	if err != nil {
		t.Fatalf("loading the build-tag pair: %v", err)
	}
	var names []string
	for _, f := range pkgs[0].Files {
		names = append(names, filepath.Base(l.Fset.File(f.Pos()).Name()))
	}
	kern := "kern_other.go"
	if runtime.GOARCH == "amd64" {
		kern = "kern_amd64.go"
	}
	if len(names) != 2 || names[0] != kern || names[1] != "lanes.go" {
		t.Fatalf("loaded %v, want [%s lanes.go] on %s", names, kern, runtime.GOARCH)
	}
}
