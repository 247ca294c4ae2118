package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code instead of comparing")

// golden compares an experiment's rendered table with
// testdata/<id>.golden, byte for byte. The files were cut from the
// hand-rolled drivers at the commit before the scenario runner
// replaced them, at the seed each shape test already runs — so the
// comparison costs no extra simulation and pins every figure the
// refactor had to preserve. IDs are the gridbench registry's; every
// table is a function of its seed, so every experiment has one.
func golden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s (regenerate with -update only for an intended change):\n--- got\n%s--- want\n%s", id, path, got, want)
	}
}
