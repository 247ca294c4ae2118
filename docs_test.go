package lattice_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists keeps the prose honest about the tree:
// every `make <target>` the four living documents mention is a target
// of the Makefile, and every repo path — any word ending in .go, .json
// or .md, or under cmd/, internal/, examples/ — exists.
// bench/, CHANGES.md and ROADMAP.md are history and may name the dead.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	// Bare file names resolve against every file in the tree; written
	// are the ones the programs create at run time.
	names := map[string]bool{}
	written := map[string]bool{"snapshot.json": true, "latticelint.json": true, "trace.json": true}
	if err := filepath.WalkDir(".", func(_ string, d fs.DirEntry, err error) error {
		if err == nil {
			names[d.Name()] = true
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`[^`\n]+`")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "internal/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(text), -1) {
			if w := strings.Fields(strings.Trim(s, "`")); len(w) >= 2 && w[0] == "make" && !targets[w[1]] {
				t.Errorf("%s: %s is not a Makefile target", doc, s)
			}
		}
		for _, w := range strings.Fields(string(text)) {
			w = strings.Trim(w, "`\"'()[].,;:")
			w = strings.TrimSuffix(strings.TrimPrefix(w, "./"), "/...")
			inTree := strings.HasPrefix(w, "cmd/") || strings.HasPrefix(w, "internal/") || strings.HasPrefix(w, "examples/")
			isFile := strings.HasSuffix(w, ".go") || strings.HasSuffix(w, ".json") || strings.HasSuffix(w, ".md")
			if !inTree && !isFile || strings.ContainsAny(w, "*<>{}=…`") || written[filepath.Base(w)] {
				continue
			}
			if !strings.Contains(w, "/") && names[w] {
				continue
			}
			_, atRoot := os.Stat(w)
			_, beside := os.Stat(filepath.Join(filepath.Dir(doc), w))
			if atRoot != nil && beside != nil {
				t.Errorf("%s names %s, which the tree does not have", doc, w)
			}
		}
	}
}
