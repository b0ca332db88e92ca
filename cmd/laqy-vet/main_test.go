package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestSortFindingsNumeric(t *testing.T) {
	fs := []finding{
		{File: "b.go", Line: 2, Col: 1, Analyzer: "x"},
		{File: "a.go", Line: 10, Col: 1, Analyzer: "x"},
		{File: "a.go", Line: 9, Col: 20, Analyzer: "x"},
		{File: "a.go", Line: 9, Col: 3, Analyzer: "z"},
		{File: "a.go", Line: 9, Col: 3, Analyzer: "y"},
	}
	sortFindings(fs)
	if fs[0].Analyzer != "y" || fs[1].Analyzer != "z" {
		t.Fatalf("analyzer tiebreak broken: %+v", fs[:2])
	}
	// Lexicographic position sorting would place 9:20 after 10:1 and
	// 9:3 after 9:20; numeric sorting must not.
	if fs[2].Line != 9 || fs[2].Col != 20 {
		t.Fatalf("column sort not numeric: %+v", fs[2])
	}
	if fs[3].Line != 10 {
		t.Fatalf("line sort not numeric: %+v", fs[3])
	}
	if fs[4].File != "b.go" {
		t.Fatalf("file sort broken: %+v", fs[4])
	}
}

// TestRunList exercises the -list path.
func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	for _, name := range []string{"lockorder", "goleak", "weightflow", "rngsource"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestRunSelfClean runs the full suite over this command's own package —
// the self-check that make lint also performs.
func TestRunSelfClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"."}, &out, &errb); code != 0 {
		t.Fatalf("laqy-vet over its own package exited %d:\n%s%s", code, out.String(), errb.String())
	}
}

// wantLines returns "file:line" for every line of the package's .go files
// that carries a `// want` annotation — the golden package's own record of
// the findings the analyzer must report.
func wantLines(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), "// want `") {
				want[fmt.Sprintf("%s:%d", filepath.Base(path), line)] = true
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// sortedKeys renders a set for failure messages.
func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestRunJSONFindings runs one analyzer over its golden package and checks
// the JSON stream: parseable, sorted, carrying the suppression hint, and
// reporting exactly the lines the package annotates with `// want`.
func TestRunJSONFindings(t *testing.T) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test file")
	}
	dir := filepath.Join(filepath.Dir(file), "..", "..", "tools", "laqyvet", "testdata", "src", "goleak", "a")
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-checks", "goleak", dir}, &out, &errb)
	if code != 1 {
		t.Fatalf("expected findings (exit 1), got %d:\n%s%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := wantLines(t, dir)
	if len(want) == 0 {
		t.Fatal("goleak golden package has no // want annotations")
	}
	got := map[string]bool{}
	prevFile, prevLine := "", 0
	for _, l := range lines {
		var f finding
		if err := json.Unmarshal([]byte(l), &f); err != nil {
			t.Fatalf("unparseable finding %q: %v", l, err)
		}
		if f.Analyzer != "goleak" {
			t.Fatalf("wrong analyzer in %+v", f)
		}
		if f.Suppression != "//laqy:allow goleak <rationale>" {
			t.Fatalf("missing suppression hint in %+v", f)
		}
		if f.File == prevFile && f.Line < prevLine {
			t.Fatalf("findings not sorted by line within a file: %v", lines)
		}
		if f.File < prevFile {
			t.Fatalf("findings not sorted by file: %v", lines)
		}
		prevFile, prevLine = f.File, f.Line
		pos := fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
		if got[pos] {
			t.Fatalf("duplicate finding at %s: %v", pos, lines)
		}
		got[pos] = true
	}
	if g, w := sortedKeys(got), sortedKeys(want); strings.Join(g, " ") != strings.Join(w, " ") {
		t.Fatalf("findings at %v, want exactly the annotated lines %v", g, w)
	}
}
