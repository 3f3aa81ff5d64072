package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	if all, err := selectExperiments(""); err != nil || len(all) != len(experiments) {
		t.Fatalf("no id: %d experiments, %v; want all %d", len(all), err, len(experiments))
	}
	if one, err := selectExperiments("c6"); err != nil || len(one) != 1 || one[0].id != "C6" {
		t.Fatalf("c6: %v, %v; want C6 alone", one, err)
	}
	// An id nothing answers to is an error, never an empty run.
	_, err := selectExperiments("S99")
	if err == nil || !strings.Contains(err.Error(), "F1 F2") || !strings.Contains(err.Error(), "S5") {
		t.Fatalf("unknown id: %v; want an error listing the ids", err)
	}
	_, err = selectExperiments("s7")
	if err == nil || !strings.Contains(err.Error(), "agg_p50_rel on firehose-analytics") {
		t.Fatalf("retired id: %v; want an error naming what replaced it", err)
	}
	for id := range retired {
		for _, e := range experiments {
			if e.id == id {
				t.Errorf("%s is both registered and retired", id)
			}
		}
	}
}

// TestDocsCiteWhatExists is `make docs-check`: every BENCH_*.json the
// prose names is a file at the root of the repository or one `make bench`
// leaves there uncommitted (the Makefile's SCRATCH_BENCH), and every
// `-exp X` it tells a reader to run is a registered experiment.
func TestDocsCiteWhatExists(t *testing.T) {
	root := filepath.Join("..", "..")
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	m := regexp.MustCompile(`(?m)^SCRATCH_BENCH *=(.*)$`).FindStringSubmatch(read("Makefile"))
	if m == nil {
		t.Fatal("the Makefile no longer defines SCRATCH_BENCH")
	}
	scratch := strings.Fields(m[1])
	benchFile := regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	expID := regexp.MustCompile(`-exp ([A-Za-z]+[0-9]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text := read(doc)
		for _, name := range benchFile.FindAllString(text, -1) {
			if _, err := os.Stat(filepath.Join(root, name)); err != nil && !slices.Contains(scratch, name) {
				t.Errorf("%s cites %s: not in the repository and not in SCRATCH_BENCH", doc, name)
			}
		}
		for _, m := range expID.FindAllStringSubmatch(text, -1) {
			if _, err := selectExperiments(m[1]); err != nil {
				t.Errorf("%s cites -exp %s: %v", doc, m[1], err)
			}
		}
	}
}

// TestFuzzSmokeListsEveryTarget is the other half of `make docs-check`: the
// Makefile's fuzz-smoke recipe gives every Fuzz function in the repository
// its few seconds, so its list names each one, in the package that holds it,
// and nothing else.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	root := filepath.Join("..", "..")
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	recipe := regexp.MustCompile(`(?ms)^fuzz-smoke:\n(.*?)\n\n`).FindSubmatch(mk)
	if recipe == nil {
		t.Fatal("the Makefile no longer has a fuzz-smoke recipe")
	}
	var listed []string
	for _, m := range regexp.MustCompile(`-fuzz='\^(Fuzz\w+)\$\$' .* \./(\S+)`).FindAllSubmatch(recipe[1], -1) {
		listed = append(listed, string(m[2])+"."+string(m[1]))
	}
	var found []string
	target := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		for _, m := range target.FindAllSubmatch(src, -1) {
			found = append(found, filepath.ToSlash(dir)+"."+string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(listed)
	slices.Sort(found)
	for _, f := range found {
		if !slices.Contains(listed, f) {
			t.Errorf("%s is not in fuzz-smoke", f)
		}
	}
	for _, l := range listed {
		if !slices.Contains(found, l) {
			t.Errorf("fuzz-smoke runs %s, which no test file defines", l)
		}
	}
	if len(found) == 0 {
		t.Fatal("found no Fuzz function: the walk is looking in the wrong place")
	}
}
