// Command calliope-vet is Calliope's custom static-analysis
// multichecker. It runs the repo-specific analyzers — spscrole,
// walltime, errdropped, pageref, lockorder, goroleak, testonly — over
// the packages named on the command line and exits non-zero if any
// invariant is violated. Per-package checks run package by package;
// cross-package checks (lockorder's acquisition graph, goroleak's
// spawn-target resolution, testonly's references) run once over the
// whole load set. testonly reports an exported function only when the
// load set is every package ./... names at the module root, since
// code outside a partial load set may call it. That an atomic counter
// is never copied is go vet's copylocks check, not one of these.
//
// Usage:
//
//	go run ./cmd/calliope-vet ./...
//	go run ./cmd/calliope-vet ./internal/msu ./internal/coordinator
//	go run ./cmd/calliope-vet -list
//
// Patterns are go list's: `go list` names the module and those of its
// packages with Go files that the patterns match (so `all` is the
// module's packages, as `./...` is at its root), and patterns that
// match none of them fail. The tool needs no network and no GOPATH:
// module packages are parsed from the module root and the standard
// library is type-checked from GOROOT source. Analyzer diagnostics
// explain how to suppress false positives; see DESIGN.md
// ("Static analysis & invariants").
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"calliope/internal/analysis/errdropped"
	"calliope/internal/analysis/framework"
	"calliope/internal/analysis/goroleak"
	"calliope/internal/analysis/lockorder"
	"calliope/internal/analysis/pageref"
	"calliope/internal/analysis/spscrole"
	"calliope/internal/analysis/testonly"
	"calliope/internal/analysis/walltime"
)

var analyzers = []*framework.Analyzer{
	spscrole.Analyzer,
	walltime.Analyzer,
	errdropped.Analyzer,
	pageref.Analyzer,
	lockorder.Analyzer,
	goroleak.Analyzer,
	testonly.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	var only stringsFlag
	flag.Var(&only, "run", "comma-separated analyzer names to run (default all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: calliope-vet [-list] [-run a,b] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if len(only) > 0 {
		selected = nil
		for _, a := range analyzers {
			for _, name := range only {
				if a.Name == name {
					selected = append(selected, a)
				}
			}
		}
		if len(selected) == 0 {
			fatalf("no analyzer matches -run=%s", strings.Join(only, ","))
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := vet(".", patterns, selected)
	for _, f := range findings {
		fmt.Println(f)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// vet runs analyzers over the module packages that patterns match, as
// go list in dir reads them, and returns one line per diagnostic. A
// package that fails to load is in the error; the rest are still
// checked.
func vet(dir string, patterns []string, analyzers []*framework.Analyzer) ([]string, error) {
	mod, err := goList(dir, "-m", "-f", "{{.Path}}\n{{.Dir}}")
	if err != nil {
		return nil, err
	}
	modPath, root := mod[0], mod[1]
	// Only the module's own packages: `all` names the standard library
	// too, which the loader type-checks only as a dependency.
	const format = "{{if and .GoFiles .Module .Module.Main}}{{.ImportPath}}{{end}}"
	paths, err := goList(dir, append([]string{"-f", format}, patterns...)...)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no package of the module matches %s", strings.Join(patterns, " "))
	}
	// The load set is the whole module when it holds every package
	// ./... names at the root (both lists hold module packages only).
	all, err := goList(dir, "-f", format, modPath+"/...")
	if err != nil {
		return nil, err
	}

	loader := framework.NewLoader()
	loader.ModulePath = modPath
	loader.ModuleRoot = root

	// Load the whole set first: cross-package analyzers (lockorder)
	// need every package type-checked before they can build their
	// tree-wide graphs.
	var loadErrs []error
	var pkgs []*framework.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			loadErrs = append(loadErrs, err)
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := framework.RunProject(pkgs, len(paths) == len(all), analyzers)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		rel, rerr := filepath.Rel(root, pos.Filename)
		if rerr != nil {
			rel = pos.Filename
		}
		findings = append(findings, fmt.Sprintf("%s:%d:%d: [%s] %s", rel, pos.Line, pos.Column, d.Analyzer.Name, d.Message))
	}
	return findings, errors.Join(loadErrs...)
}

// goList runs go list in dir with args and returns the lines it
// prints, empty ones dropped; what it says on stderr passes through.
func goList(dir string, args ...string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var lines []string
	for _, line := range strings.Split(string(out), "\n") {
		if line != "" {
			lines = append(lines, line)
		}
	}
	return lines, nil
}

type stringsFlag []string

func (s *stringsFlag) String() string { return strings.Join(*s, ",") }
func (s *stringsFlag) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*s = append(*s, part)
		}
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "calliope-vet: "+format+"\n", args...)
	os.Exit(2)
}
