// Package framework is a self-contained reimplementation of the core
// of golang.org/x/tools/go/analysis, built only on the standard
// library's go/ast, go/parser, go/types and go/importer packages.
//
// Calliope's correctness rests on invariants the compiler cannot see:
// the SPSC queue's single-producer/single-consumer contract (§2.3),
// wall-clock-free deterministic packages, control-plane errors that
// must never be dropped, pages released once, one lock order, a
// shutdown edge for every goroutine and no production code that only
// tests reach. (That atomic counters are never
// copied is go vet's copylocks check.) The analyzers under
// internal/analysis encode those
// invariants; this package gives them an x/tools-shaped API (Analyzer,
// Pass, Diagnostic) plus a loader, so they read like standard go/vet
// checkers while the tree stays dependency-free.
//
// Diagnostics can be suppressed with a trailing
// "//nolint:<analyzer>" comment on the offending line; an analyzer may
// declare extra accepted suppression names (errdropped, for example,
// also honors the conventional //nolint:errcheck).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. An analyzer provides Run (a
// per-package check), RunAll (a whole-load-set check for invariants
// that span packages, like lock-ordering), or both.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and nolint comments.
	Name string
	// Doc is a one-paragraph description of what it reports.
	Doc string
	// Suppress lists extra nolint names (besides Name and "all") that
	// silence this analyzer's diagnostics.
	Suppress []string
	// Run executes the check over one package.
	Run func(*Pass) error
	// RunAll executes the check once over the whole load set, after
	// every package has been type-checked. Cross-package analyzers
	// (lockorder) use this instead of Run.
	RunAll func(*ProjectPass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer,
	})
}

// ProjectPass carries a RunAll analyzer's view of a whole load set:
// every package the tool was pointed at, type-checked under one
// FileSet.
type ProjectPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	// Funcs indexes every function and method declared with a body in
	// Pkgs by its object.
	Funcs map[types.Object]*Func
	// Whole reports that Pkgs is every package of the module, so no
	// code outside them refers to theirs.
	Whole bool

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ProjectPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer,
	})
}

// RunProject executes the analyzers over a whole load set: Run per
// package, RunAll once across all of them. All packages must come from
// one Loader (they share its FileSet); whole says they are every
// package of the module (ProjectPass.Whole). Diagnostics are
// suppression-filtered and returned in position order.
func RunProject(pkgs []*Package, whole bool, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	var funcs map[types.Object]*Func
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				pass := &Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.Info,
					diags:     &diags,
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.Path, err)
				}
			}
		}
		if a.RunAll != nil {
			if funcs == nil {
				funcs = indexFuncs(pkgs)
			}
			pass := &ProjectPass{
				Analyzer: a,
				Fset:     pkgs[0].Fset,
				Pkgs:     pkgs,
				Funcs:    funcs,
				Whole:    whole,
				diags:    &diags,
			}
			if err := a.RunAll(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzing project: %w", a.Name, err)
			}
		}
	}
	diags = filterSuppressed(pkgs, diags)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// filterSuppressed drops diagnostics whose source line carries a
// matching nolint comment.
func filterSuppressed(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	// file → line → set of nolint names on that line.
	suppressed := make(map[string]map[int][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names := nolintNames(c.Text)
					if len(names) == 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					m := suppressed[pos.Filename]
					if m == nil {
						m = make(map[int][]string)
						suppressed[pos.Filename] = m
					}
					m[pos.Line] = append(m[pos.Line], names...)
				}
			}
		}
	}
	fset := pkgs[0].Fset
	out := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if lineSuppresses(suppressed[pos.Filename][pos.Line], d.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// nolintNames extracts the analyzer names from a "//nolint:a,b" text.
func nolintNames(text string) []string {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "nolint:") {
		return nil
	}
	rest := strings.TrimPrefix(text, "nolint:")
	// Ignore trailing prose ("//nolint:errcheck // released at most once").
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	var names []string
	for _, n := range strings.Split(rest, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

func lineSuppresses(names []string, a *Analyzer) bool {
	for _, n := range names {
		if n == "all" || n == a.Name {
			return true
		}
		for _, s := range a.Suppress {
			if n == s {
				return true
			}
		}
	}
	return false
}
