package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const suppressSrc = `package p

func f() {
	g() //lint:allow lockpair helper contract, callers release
	//lint:allow heldcall the write is to an in-memory file
	h()
	//lint:allow nestedpark
	i()
}

func g() {}
func h() {}
func i() {}
`

func parseSuppressFixture(t *testing.T) (*Package, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", suppressSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Fset: fset, Files: []*ast.File{f}}, fset
}

// posOf returns the token.Pos of the first occurrence of needle.
func posOf(t *testing.T, fset *token.FileSet, pkg *Package, needle string) token.Pos {
	t.Helper()
	off := strings.Index(suppressSrc, needle)
	if off < 0 {
		t.Fatalf("%q not in fixture", needle)
	}
	return fset.File(pkg.Files[0].Pos()).Pos(off)
}

func TestSuppressions(t *testing.T) {
	pkg, fset := parseSuppressFixture(t)
	s := newSuppressions([]*Package{pkg})

	// The reason-less //lint:allow nestedpark is a finding, not a
	// suppression.
	if len(s.malformed) != 1 {
		t.Fatalf("malformed = %d, want 1", len(s.malformed))
	}
	if !strings.Contains(s.malformed[0].Message, "malformed suppression") {
		t.Fatalf("malformed message = %q", s.malformed[0].Message)
	}

	cases := []struct {
		needle   string
		analyzer string
		want     bool
	}{
		{"g()", "lockpair", true},    // same-line suppression
		{"g()", "heldcall", false},   // wrong analyzer
		{"h()", "heldcall", true},    // line-above suppression
		{"h()", "lockpair", false},   // wrong analyzer
		{"i()", "nestedpark", false}, // reason-less suppression does not suppress
	}
	for _, c := range cases {
		d := Diagnostic{Analyzer: c.analyzer, Pos: posOf(t, fset, pkg, c.needle), Message: "x"}
		if got := s.allows(d); got != c.want {
			t.Errorf("allows(%s at %q) = %v, want %v", c.analyzer, c.needle, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("lockpair, heldcall")
	if err != nil || len(as) != 2 || as[0].Name != "lockpair" || as[1].Name != "heldcall" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) did not error")
	}
}
