// Package analysistest runs an analyzer over a GOPATH-style testdata
// tree and checks its diagnostics against "// want" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the stdlib-only
// framework in internal/analysis/framework.
//
// Each expectation is a comment on the offending line of the form
//
//	q.Dequeue() // want `both enqueues and dequeues`
//	x := y      // want "copies" "a second pattern"
//
// Every quoted string is an anchored-nowhere regular expression that
// must match the message of exactly one diagnostic reported on that
// line, and every diagnostic must be claimed by exactly one
// expectation.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"calliope/internal/analysis/framework"
)

// wantRe matches one quoted expectation in a want comment: either a
// backquoted or a double-quoted Go string.
var wantRe = regexp.MustCompile("`[^`]*`" + `|"(?:[^"\\]|\\.)*"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads every package path from testdata/src into one load set,
// applies the analyzer across it (per-package Run and cross-package
// RunAll both fire) as the whole tree (ProjectPass.Whole), and diffs
// diagnostics against want comments in any of the loaded packages.
func Run(t *testing.T, testdata string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	loader := framework.NewLoader()
	loader.SrcRoot = filepath.Join(testdata, "src")
	var pkgs []*framework.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Errorf("loading %s: %v", path, err)
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return
	}
	diags, err := framework.RunProject(pkgs, true, []*framework.Analyzer{a})
	if err != nil {
		t.Errorf("running %s: %v", a.Name, err)
		return
	}
	checkPackages(t, pkgs, diags)
}

func checkPackages(t *testing.T, pkgs []*framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	fset := pkgs[0].Fset
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					wants = append(wants, parseWants(t, fset, c.Pos(), c.Text)...)
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}

// parseWants extracts the expectations from one comment.
func parseWants(t *testing.T, fset *token.FileSet, pos token.Pos, text string) []*expectation {
	t.Helper()
	body := strings.TrimPrefix(text, "//")
	body = strings.TrimSpace(body)
	if !strings.HasPrefix(body, "want ") && body != "want" {
		return nil
	}
	position := fset.Position(pos)
	var out []*expectation
	for _, q := range wantRe.FindAllString(body, -1) {
		pat := q[1 : len(q)-1]
		if q[0] == '"' {
			pat = unescape(pat)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s: bad want pattern %s: %v", position, q, err)
		}
		out = append(out, &expectation{file: position.Filename, line: position.Line, pattern: re})
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment with no patterns", position)
	}
	return out
}

// unescape undoes the double-quoted escapes we allow (\" and \\).
func unescape(s string) string {
	s = strings.ReplaceAll(s, `\"`, `"`)
	return strings.ReplaceAll(s, `\\`, `\`)
}

// claim marks the first unmatched expectation on file:line whose
// pattern matches msg.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.pattern.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
