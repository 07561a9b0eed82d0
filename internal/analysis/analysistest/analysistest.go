// Package analysistest runs an analyzer over a testdata fixture package
// and checks its diagnostics against `// want` comment annotations, in
// the style of golang.org/x/tools/go/analysis/analysistest (stdlib-only
// — see karma/internal/analysis for why the framework is home-grown).
//
// A fixture line expecting diagnostics carries one or more quoted
// regular expressions:
//
//	x := float64(b) + float64(s) // want `mixed-dimension`
//
// Every want must be matched by a diagnostic reported on its line, and
// every diagnostic must match a want; anything else fails the test.
// Fixtures live under testdata/src/<name>/ and may import real module
// packages (karma/internal/unit, karma/internal/plan, ...): the loader
// type-checks from source, and the test's working directory — the
// analyzer package directory — anchors module-path resolution.
package analysistest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"karma/internal/analysis"
	"karma/internal/analysis/load"
)

// wantRE captures the comment tail after "// want".
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// expectation is one want annotation.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<pkgname> relative to dir, applies the
// analyzer, and diffs diagnostics against the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgname string) {
	t.Helper()
	fixture := filepath.Join(dir, "testdata", "src", pkgname)
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []string
	testSet := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		p := filepath.Join(fixture, e.Name())
		files = append(files, p)
		if strings.HasSuffix(e.Name(), "_test.go") {
			testSet[p] = true
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", fixture)
	}

	fset := token.NewFileSet()
	pkg, err := load.Check(fset, load.NewImporter(fset), pkgname, fixture, files, testSet)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture type error: %v", terr)
	}

	wants := collectWants(t, files)
	pass := &analysis.Pass{
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		IsTestFile: pkg.IsTestFile,
	}
	diags, err := analysis.RunAnalyzer(a, pass)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	for _, d := range diags {
		p := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.file == p.Filename && w.line == p.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", p, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// collectWants parses want annotations out of the fixture sources.
func collectWants(t *testing.T, files []string) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, pat := range parsePatterns(t, name, i+1, strings.TrimSpace(m[1])) {
				rx, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: name, line: i + 1, rx: rx})
			}
		}
	}
	return wants
}

// parsePatterns splits a want tail into its quoted regexp strings
// (double- or back-quoted, space separated).
func parsePatterns(t *testing.T, file string, line int, tail string) []string {
	t.Helper()
	var pats []string
	for tail != "" {
		tail = strings.TrimLeft(tail, " \t")
		if tail == "" {
			break
		}
		switch tail[0] {
		case '"':
			end := -1
			for i := 1; i < len(tail); i++ {
				if tail[i] == '"' && tail[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want string", file, line)
			}
			s, err := strconv.Unquote(tail[:end+1])
			if err != nil {
				t.Fatalf("%s:%d: bad want string: %v", file, line, err)
			}
			pats = append(pats, s)
			tail = tail[end+1:]
		case '`':
			end := strings.IndexByte(tail[1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want raw string", file, line)
			}
			pats = append(pats, tail[1:1+end])
			tail = tail[end+2:]
		default:
			t.Fatalf("%s:%d: want patterns must be quoted, got %q", file, line, tail)
		}
	}
	if len(pats) == 0 {
		t.Fatalf("%s:%d: want comment with no patterns", file, line)
	}
	return pats
}
