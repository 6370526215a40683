package repro_test

import (
	"os"
	"regexp"
	"testing"
)

// TestNamedCommandsExist fails when CI or a document names a `./cmd/X`
// or `./examples/X` that is not in the tree, so deleting or renaming a
// command cannot leave a step or an instruction that runs nothing.
func TestNamedCommandsExist(t *testing.T) {
	docs := []string{
		".github/workflows/ci.yml",
		"README.md",
		"DESIGN.md",
		"EXPERIMENTS.md",
		".claude/skills/verify/SKILL.md",
	}
	named := regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:cmd|examples)/[\w-]+)`)
	seen := 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllStringSubmatch(string(src), -1) {
			seen++
			if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory of the tree", doc, m[1])
			}
		}
	}
	if seen == 0 {
		t.Fatal("no cmd/ or examples/ path found in any document")
	}
}
