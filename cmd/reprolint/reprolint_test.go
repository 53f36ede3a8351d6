package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// loadTestdata loads the named testdata packages (paths relative to
// testdata/src) with the real loader and runs every analyzer over them.
func loadTestdata(t *testing.T, names ...string) []Finding {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(wd)
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, len(names))
	for i, name := range names {
		dirs[i] = filepath.Join(wd, "testdata", "src", filepath.FromSlash(name))
	}
	pkgs, err := loader.Load(dirs)
	if err != nil {
		t.Fatal(err)
	}
	return runAnalyzers(loader.Fset, pkgs, analyzers)
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// wantsIn scans the named testdata packages' files for // want "substring"
// comments, keyed by file:line.
func wantsIn(t *testing.T, names ...string) map[string]string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string]string)
	for _, name := range names {
		dir := filepath.Join(wd, "testdata", "src", filepath.FromSlash(name))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				if m := wantRE.FindStringSubmatch(line); m != nil {
					wants[fmt.Sprintf("%s:%d", path, i+1)] = m[1]
				}
			}
		}
	}
	return wants
}

// checkGolden matches findings against want comments one-to-one by file and
// line, with substring message matching.
func checkGolden(t *testing.T, findings []Finding, wants map[string]string) {
	t.Helper()
	matched := make(map[string]bool)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		want, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Check+": "+f.Msg, want) {
			t.Errorf("finding at %s: got [%s] %q, want substring %q", key, f.Check, f.Msg, want)
			continue
		}
		matched[key] = true
	}
	for key, want := range wants {
		if !matched[key] {
			t.Errorf("missing finding at %s: want %q", key, want)
		}
	}
}

func TestBlockingLockGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "blockinglock"), wantsIn(t, "blockinglock"))
}

// TestProblemMatcher ties CI's annotation regexp to Finding.String(): every
// finding of the golden runs must match .github/reprolint-problem-matcher.json
// with the groups the matcher names equal to the finding's own fields, or a
// drifted format silently loses every PR annotation.
func TestProblemMatcher(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(wd, "..", "..", ".github", "reprolint-problem-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp                            string
				File, Line, Column, Code, Message int
			}
		}
	}
	if err := json.Unmarshal(data, &matcher); err != nil {
		t.Fatal(err)
	}
	pat := matcher.ProblemMatcher[0].Pattern[0]
	re := regexp.MustCompile(pat.Regexp)

	findings := loadTestdata(t, "blockinglock", "suppress")
	checks := make(map[string]bool)
	for _, f := range findings {
		checks[f.Check] = true
		m := re.FindStringSubmatch(f.String())
		if m == nil {
			t.Errorf("matcher regexp %q does not match %q", pat.Regexp, f)
			continue
		}
		got := [5]string{m[pat.File], m[pat.Line], m[pat.Column], m[pat.Code], m[pat.Message]}
		want := [5]string{f.Pos.Filename, strconv.Itoa(f.Pos.Line), strconv.Itoa(f.Pos.Column), f.Check, f.Msg}
		if got != want {
			t.Errorf("matcher groups for %q:\n got %q\nwant %q", f, got, want)
		}
	}
	for _, a := range analyzers {
		if !checks[a.Name] {
			t.Errorf("no golden finding of check %s went through the matcher", a.Name)
		}
	}
}

// lineOf returns the 1-based line of the first line of file whose trimmed
// text equals want.
func lineOf(t *testing.T, file, want string) int {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == want {
			return i + 1
		}
	}
	t.Fatalf("%s: no line %q", file, want)
	return 0
}

// TestSuppression exercises //lint:ignore end to end: a correct directive
// (above or trailing) suppresses its finding, a directive naming the wrong
// check suppresses nothing, and a directive without a reason is malformed —
// the finding survives and the directive is reported itself. Expectations
// are content-anchored because a // want comment appended to a //lint:ignore
// line would parse as the directive's reason.
func TestSuppression(t *testing.T) {
	findings := loadTestdata(t, "suppress")
	wd, _ := os.Getwd()
	file := filepath.Join(wd, "testdata", "src", "suppress", "suppress.go")

	byLine := make(map[int][]Finding)
	for _, f := range findings {
		if f.Pos.Filename != file {
			t.Errorf("finding outside suppress.go: %s", f)
			continue
		}
		byLine[f.Pos.Line] = append(byLine[f.Pos.Line], f)
	}

	expectNone := func(stmt string) {
		t.Helper()
		if line := lineOf(t, file, stmt); len(byLine[line]) > 0 {
			t.Errorf("line %d (%q): finding not suppressed: %v", line, stmt, byLine[line])
		}
	}
	expectOne := func(stmt, check string) {
		t.Helper()
		line := lineOf(t, file, stmt)
		fs := byLine[line]
		if len(fs) != 1 || fs[0].Check != check {
			t.Errorf("line %d (%q): want one [%s] finding, got %v", line, stmt, check, fs)
		}
	}

	expectNone("b.ch <- 1")
	expectNone("b.ch <- 2 //lint:ignore blockinglock testdata: trailing form")
	expectOne("b.ch <- 3", "blockinglock")
	expectOne("b.ch <- 4", "blockinglock")
	expectOne("//lint:ignore blockinglock", "lint")

	if want := 3; len(findings) != want {
		t.Errorf("got %d findings, want %d: %v", len(findings), want, findings)
	}
}

// TestRepoClean is the lint gate's own regression test: the repository must
// stay free of unsuppressed findings.
func TestRepoClean(t *testing.T) {
	loader, pkgs := loadRepo(t)
	for _, f := range runAnalyzers(loader.Fset, pkgs, analyzers) {
		t.Errorf("unsuppressed finding: %s", f)
	}
}
