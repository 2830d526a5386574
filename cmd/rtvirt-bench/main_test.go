package main

import (
	"os"
	"path/filepath"
	"testing"

	"rtvirt/internal/report"
)

// TestArtifactsOnlyUnderOut pins the artifact contract of the experiments
// that record JSON: without -out they write nothing into the working
// directory, and with -out their record lands in that directory.
func TestArtifactsOnlyUnderOut(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		out = nil
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	out = nil
	runFidelity(1, 1, 1)
	runAttacks(1, 1)
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Fatalf("run without -out wrote %d entries into the working directory, first %q",
			len(entries), entries[0].Name())
	}

	dir := filepath.Join(tmp, "out")
	if out, err = report.NewDir(dir); err != nil {
		t.Fatal(err)
	}
	runFidelity(1, 1, 1)
	runAttacks(1, 1)
	for _, name := range []string{"fidelity.json", "attacks.json"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty under -out: %v", name, err)
		}
	}
}
