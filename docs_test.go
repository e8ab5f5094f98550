package wearlock_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// moduleDirRE matches a module directory named in a layout block, either
// one per match ("internal/dsp") or as a brace list that may span lines
// ("internal/{dsp,audio,\n  modem}").
var moduleDirRE = regexp.MustCompile(`\b(internal|cmd|examples)/(\{[^}]*\}|[A-Za-z0-9_-]+)`)

// TestDocsNameEveryModuleDirectory holds README.md's architecture tree
// and DESIGN.md §6 to the directories on disk: each must name every
// internal/*, cmd/* and examples/* directory, and none that is gone.
func TestDocsNameEveryModuleDirectory(t *testing.T) {
	var want []string
	for _, root := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				want = append(want, root+"/"+e.Name())
			}
		}
	}
	for _, doc := range []struct{ file, start, end string }{
		{"README.md", "## Architecture\n\n```\n", "\n```\n"},
		{"DESIGN.md", "## 6. Module layout\n\n```\n", "\n```\n"},
	} {
		raw, err := os.ReadFile(doc.file)
		if err != nil {
			t.Fatal(err)
		}
		_, block, ok := strings.Cut(string(raw), doc.start)
		if ok {
			block, _, ok = strings.Cut(block, doc.end)
		}
		if !ok {
			t.Fatalf("%s: no layout block opening with %q", doc.file, doc.start)
		}
		named := map[string]bool{}
		for _, m := range moduleDirRE.FindAllStringSubmatch(block, -1) {
			for _, name := range strings.Split(strings.Trim(m[2], "{}"), ",") {
				named[m[1]+"/"+strings.TrimSpace(name)] = true
			}
		}
		for _, dir := range want {
			if !named[dir] {
				t.Errorf("%s: layout block misses %s", doc.file, dir)
			}
		}
		for dir := range named {
			if !slices.Contains(want, dir) {
				t.Errorf("%s: layout block names %s, which does not exist", doc.file, dir)
			}
		}
	}
}
