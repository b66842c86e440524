package calliope

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentIndexNamesBenchmarks keeps DESIGN.md's experiment index
// and EXPERIMENTS.md honest: every Benchmark they cite must be declared
// by some test file in the module. A trailing * cites every benchmark
// with that prefix.
func TestExperimentIndexNamesBenchmarks(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, found := strings.Cut(string(design), "### Experiment index")
	if !found {
		t.Fatal(`DESIGN.md has no "### Experiment index" section`)
	}
	if end := strings.Index(index, "\n#"); end >= 0 {
		index = index[:end]
	}
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`Benchmark\w*\*?`).FindAllString(index+string(experiments), -1)
	if len(cited) == 0 {
		t.Fatal("the experiment index and EXPERIMENTS.md cite no benchmark")
	}

	var declared []string
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	eachTestFile(t, func(_ string, src []byte) {
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared = append(declared, m[1])
		}
	})

	for _, name := range cited {
		prefix, wildcard := strings.CutSuffix(name, "*")
		ok := false
		for _, d := range declared {
			if d == name || wildcard && strings.HasPrefix(d, prefix) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s is cited but no test file declares it", name)
		}
	}
}

// TestEverySleepSaysWhy keeps the suites' fixed waits few and explained:
// a test waits for the thing it asserts (internal/await, a channel, the
// Coordinator's timeline), so a sleep left in a test file models time
// itself — a source's packet spacing, a device's latency, a window a
// negative check must let pass — and says which on its own line.
func TestEverySleepSaysWhy(t *testing.T) {
	sleep := regexp.MustCompile(`time\.Sleep\(|^\s*<-time\.After\(`)
	reason := regexp.MustCompile(`//\s*(\w+)`)
	eachTestFile(t, func(path string, src []byte) {
		for i, line := range strings.Split(string(src), "\n") {
			at := sleep.FindStringIndex(line)
			if at == nil {
				continue
			}
			code, comment, _ := strings.Cut(line, "//")
			if len(code) < at[0] {
				continue // the words are in a comment
			}
			if m := reason.FindStringSubmatch("//" + comment); m == nil || m[1] == "nolint" {
				t.Errorf("%s:%d: a fixed wait without its reason on the line: %s", path, i+1, strings.TrimSpace(line))
			}
		}
	})
}

// eachTestFile hands f every _test.go file in the module, outside
// hidden directories.
func eachTestFile(t *testing.T, f func(path string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f(path, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
