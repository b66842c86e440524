// Command calliope-vet is Calliope's custom static-analysis
// multichecker. It runs the repo-specific analyzers — spscrole,
// walltime, errdropped, pageref, lockorder, goroleak — over the
// packages named on the command line and exits non-zero if any
// invariant is violated. Per-package checks run package by package;
// cross-package checks (lockorder's acquisition graph, goroleak's
// spawn-target resolution) run once over the whole load set. That an
// atomic counter is never copied is go vet's copylocks check, not
// one of these.
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
	"calliope/internal/analysis/walltime"
)

var analyzers = []*framework.Analyzer{
	spscrole.Analyzer,
	walltime.Analyzer,
	errdropped.Analyzer,
	pageref.Analyzer,
	lockorder.Analyzer,
	goroleak.Analyzer,
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

	mod, err := goList("-m", "-f", "{{.Path}}\n{{.Dir}}")
	if err != nil {
		fatalf("%v", err)
	}
	modPath, root := mod[0], mod[1]
	// Only the module's own packages: `all` names the standard library
	// too, which the loader type-checks only as a dependency.
	paths, err := goList(append([]string{"-f", "{{if and .GoFiles .Module .Module.Main}}{{.ImportPath}}{{end}}"}, patterns...)...)
	if err != nil {
		fatalf("%v", err)
	}
	if len(paths) == 0 {
		fatalf("no package of the module matches %s", strings.Join(patterns, " "))
	}

	loader := framework.NewLoader()
	loader.ModulePath = modPath
	loader.ModuleRoot = root

	// Load the whole set first: cross-package analyzers (lockorder)
	// need every package type-checked before they can build their
	// tree-wide graphs.
	exit := 0
	var pkgs []*framework.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "calliope-vet: %v\n", err)
			exit = 1
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := framework.RunProject(pkgs, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "calliope-vet: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		rel, rerr := filepath.Rel(root, pos.Filename)
		if rerr != nil {
			rel = pos.Filename
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", rel, pos.Line, pos.Column, d.Analyzer.Name, d.Message)
		exit = 1
	}
	os.Exit(exit)
}

// goList runs go list with args and returns the lines it prints,
// empty ones dropped; what it says on stderr passes through.
func goList(args ...string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
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
