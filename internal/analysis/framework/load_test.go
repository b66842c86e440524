package framework

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a GOPATH-style src root under a temp dir and
// returns a loader rooted at it.
func writeTree(t *testing.T, files map[string]string) *Loader {
	t.Helper()
	src := filepath.Join(t.TempDir(), "src")
	for name, content := range files {
		fn := filepath.Join(src, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(fn), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fn, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := NewLoader()
	l.SrcRoot = src
	return l
}

func TestLoadPackage(t *testing.T) {
	l := writeTree(t, map[string]string{
		"a/a.go": "package a\n\nimport \"fmt\"\n\nfunc Hello() string { return fmt.Sprint(1) }\n",
		"a/b.go": "package a\n\nvar N = 2\n",
	})
	pkg, err := l.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "a" || pkg.Types.Name() != "a" {
		t.Errorf("loaded %q (types name %q), want package a", pkg.Path, pkg.Types.Name())
	}
	if len(pkg.Files) != 2 {
		t.Errorf("loaded %d files, want 2", len(pkg.Files))
	}
	if pkg.Types.Scope().Lookup("Hello") == nil {
		t.Error("Hello not in package scope")
	}
	// Memoized: a second Load returns the same *Package.
	again, err := l.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Error("second Load did not return the memoized package")
	}
}

func TestLoadCrossPackageImport(t *testing.T) {
	l := writeTree(t, map[string]string{
		"lib/lib.go": "package lib\n\nfunc Answer() int { return 42 }\n",
		"app/app.go": "package app\n\nimport \"lib\"\n\nvar X = lib.Answer()\n",
	})
	pkg, err := l.Load("app")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Scope().Lookup("X") == nil {
		t.Error("X not in package scope")
	}
	// The import was loaded through the same loader and memoized.
	if _, err := l.Load("lib"); err != nil {
		t.Fatalf("lib was not loadable after app: %v", err)
	}
}

func TestLoadMalformedPackage(t *testing.T) {
	cases := []struct {
		name    string
		files   map[string]string
		path    string
		wantErr string
	}{
		{
			name:    "syntax error",
			files:   map[string]string{"bad/bad.go": "package bad\n\nfunc {\n"},
			path:    "bad",
			wantErr: "expected",
		},
		{
			name:    "type error",
			files:   map[string]string{"bad/bad.go": "package bad\n\nvar X int = \"not an int\"\n"},
			path:    "bad",
			wantErr: "type-checking",
		},
		{
			name:    "empty directory",
			files:   map[string]string{"bad/README.txt": "no go files here\n"},
			path:    "bad",
			wantErr: "no Go files",
		},
		{
			name:    "unresolvable path",
			files:   map[string]string{"a/a.go": "package a\n"},
			path:    "nonexistent/pkg",
			wantErr: "cannot resolve",
		},
		{
			name: "import cycle",
			files: map[string]string{
				"x/x.go": "package x\n\nimport \"y\"\n\nvar V = y.V\n",
				"y/y.go": "package y\n\nimport \"x\"\n\nvar V = x.V\n",
			},
			path:    "x",
			wantErr: "import cycle",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := writeTree(t, c.files)
			_, err := l.Load(c.path)
			if err == nil {
				t.Fatalf("Load(%q) succeeded, want error containing %q", c.path, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Load(%q) error = %v, want substring %q", c.path, err, c.wantErr)
			}
		})
	}
}

func TestLoadFailureIsNotCached(t *testing.T) {
	// A failed load must not poison the memo: fixing the file and
	// reloading through a fresh loader of the same root succeeds, and
	// the failed entry does not masquerade as an import cycle.
	l := writeTree(t, map[string]string{
		"bad/bad.go": "package bad\n\nfunc {\n",
	})
	if _, err := l.Load("bad"); err == nil {
		t.Fatal("first Load succeeded on malformed source")
	}
	_, err := l.Load("bad")
	if err == nil {
		t.Fatal("second Load succeeded on malformed source")
	}
	if strings.Contains(err.Error(), "import cycle") {
		t.Errorf("failed load left a cycle marker behind: %v", err)
	}
}

func TestLoadRespectsBuildConstraints(t *testing.T) {
	// Tag-gated variants (leakcheck's verbose toggle) must not load
	// together: only the file matching the default build context.
	l := writeTree(t, map[string]string{
		"tagged/on.go":  "//go:build sometag\n\npackage tagged\n\nconst Mode = \"on\"\n",
		"tagged/off.go": "//go:build !sometag\n\npackage tagged\n\nconst Mode = \"off\"\n",
	})
	pkg, err := l.Load("tagged")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (build-tag filtered)", len(pkg.Files))
	}
	if !strings.HasSuffix(pkg.GoFiles[0], "off.go") {
		t.Errorf("loaded %s, want off.go (sometag is not set)", pkg.GoFiles[0])
	}
}

func TestLoadSkipsTestAndHiddenFiles(t *testing.T) {
	l := writeTree(t, map[string]string{
		"a/a.go":       "package a\n\nvar A = 1\n",
		"a/a_test.go":  "package a\n\nvar FromTest = 1\n",
		"a/.hidden.go": "package a\n\nvar Hidden = 1\n",
		"a/_skip.go":   "package a\n\nvar Skipped = 1\n",
	})
	pkg, err := l.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("loaded %d files, want only a.go", len(pkg.Files))
	}
}

func TestModuleRootResolution(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "internal", "thing")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "thing.go"), []byte("package thing\n\nfunc F() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	l.ModulePath = "example.com/mod"
	l.ModuleRoot = root
	pkg, err := l.Load("example.com/mod/internal/thing")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "thing" {
		t.Errorf("loaded package %q, want thing", pkg.Types.Name())
	}
	if _, err := l.Load("example.com/other/pkg"); err == nil {
		t.Error("path outside the module resolved")
	}
}

func TestRunProjectRegistration(t *testing.T) {
	// Both hooks fire: Run once per package, RunAll once per load set,
	// and their diagnostics merge in position order with nolint lines
	// filtered.
	l := writeTree(t, map[string]string{
		"p1/p1.go": "package p1\n\nvar A = 1\nvar B = 2 //nolint:probe // intentionally odd\n",
		"p2/p2.go": "package p2\n\nvar C = 3\n",
	})
	pkg1, err := l.Load("p1")
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := l.Load("p2")
	if err != nil {
		t.Fatal(err)
	}

	var runPkgs, runAllCalls int
	probe := &Analyzer{
		Name: "probe",
		Doc:  "test probe: reports every package-level var",
		Run: func(pass *Pass) error {
			runPkgs++
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
						pass.Reportf(g.Pos(), "var in %s", pass.Pkg.Name())
					}
				}
			}
			return nil
		},
		RunAll: func(pass *ProjectPass) error {
			runAllCalls++
			if len(pass.Pkgs) != 2 {
				t.Errorf("RunAll saw %d packages, want 2", len(pass.Pkgs))
			}
			return nil
		},
	}
	diags, err := RunProject([]*Package{pkg1, pkg2}, true, []*Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	if runPkgs != 2 {
		t.Errorf("Run fired for %d packages, want 2", runPkgs)
	}
	if runAllCalls != 1 {
		t.Errorf("RunAll fired %d times, want 1", runAllCalls)
	}
	// p1 has vars A (reported) and B (nolint-suppressed); p2 has C.
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (one suppressed): %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != probe {
			t.Errorf("diagnostic attributed to %v, want probe", d.Analyzer)
		}
	}
}
