package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests reads every `go test … -run '…'` step of
// the CI workflow and fails when an alternative of the pattern names no
// `func Test…` in the packages the step lists (`/...` expanded): a
// pattern that matches nothing passes silently, so a renamed or moved
// test would drop out of its step unnoticed.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	step := regexp.MustCompile(`go test ([^\n]*)-run '([^']*)'([^\n]*)`)
	steps := step.FindAllStringSubmatch(string(ci), -1)
	if len(steps) == 0 {
		t.Fatal("no -run step found in ci.yml")
	}
	for _, m := range steps {
		var pkgs, tests []string
		for _, arg := range strings.Fields(m[1] + " " + m[3]) {
			if strings.HasPrefix(arg, "./") {
				pkgs = append(pkgs, arg)
				tests = append(tests, testNames(t, arg)...)
			}
		}
		for _, alt := range strings.Split(m[2], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("-run %q: %v", m[2], err)
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				t.Errorf("-run alternative %q names no test in %v", alt, pkgs)
			}
		}
	}
}

var testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// testNames lists the Test functions of a go test package argument:
// one directory, or every directory under it for a `/...` pattern.
func testNames(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	dir = filepath.Clean(dir)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && !recursive {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return names
}
