package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calliope/internal/analysis/framework"
	"calliope/internal/analysis/testonly"
)

// TestPartialLoadSet checks that testonly reports an exported function
// only when the load set is the whole module: loaded alone, a package
// whose exported function only another package calls reports nothing.
func TestPartialLoadSet(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.22\n")
	write("lib/lib.go", "package lib\n\n// F is called by cmd/app only.\nfunc F() int { return 1 }\n")
	write("cmd/app/main.go", "package main\n\nimport \"example.com/m/lib\"\n\nfunc main() { println(lib.F()) }\n")
	vetOnly := func(patterns ...string) []string {
		t.Helper()
		findings, err := vet(dir, patterns, []*framework.Analyzer{testonly.Analyzer})
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}
	for _, pattern := range []string{"./lib", "./..."} {
		if got := vetOnly(pattern); len(got) != 0 {
			t.Errorf("vet %s: %q, want nothing", pattern, got)
		}
	}

	// An exported function that only a test calls is reported once the
	// whole module is loaded, and still not from the package alone.
	write("lib/tested.go", "package lib\n\n// Tested is called by a test only.\nfunc Tested() int { return 2 }\n")
	write("lib/lib_test.go", "package lib\n\nimport \"testing\"\n\nfunc TestTested(t *testing.T) { _ = Tested() }\n")
	if got := vetOnly("./lib"); len(got) != 0 {
		t.Errorf("vet ./lib: %q, want nothing", got)
	}
	got := vetOnly("./...")
	if len(got) != 1 || !strings.Contains(got[0], "[testonly] lib.Tested is reached only by tests") {
		t.Errorf("vet ./...: %q, want one [testonly] report of lib.Tested", got)
	}
}
