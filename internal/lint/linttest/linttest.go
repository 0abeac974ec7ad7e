// Package linttest is the golden-test harness for internal/lint's
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest:
// fixture packages under internal/lint/testdata/src annotate the lines
// where findings are expected with
//
//	// want `regexp`
//
// comments (several per line allowed), and Run fails the test for any
// reported finding with no matching want on its line, and any want with
// no matching finding. Clean fixtures simply contain no want comments.
package linttest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe extracts the patterns of one want comment: backquoted or
// double-quoted chunks after "want".
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture directories (paths relative to the module
// root), applies the named analyzers, and compares findings against the
// fixtures' want comments.
func Run(t *testing.T, analyzerNames string, fixtureDirs ...string) {
	t.Helper()
	analyzers, err := lint.ByName(analyzerNames)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(fixtureDirs...)
	if err != nil {
		t.Fatal(err)
	}

	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range wantRe.FindAllString(text[len("want "):], -1) {
						pat := strings.Trim(q, "`")
						if strings.HasPrefix(q, `"`) {
							if u, err := strconv.Unquote(q); err == nil {
								pat = u
							}
						}
						rx, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx, raw: q})
					}
				}
			}
		}
	}

	for _, d := range lint.NewProgram(loader, pkgs).Run(analyzers) {
		pos := loader.Fset().Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding at %s: %s [%s]", fmt.Sprint(pos), d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %s", w.file, w.line, w.raw)
		}
	}
}
