package lint

import (
	"strings"
	"testing"
)

// TestCrossPackageNeedsFacts proves the crosspark fixtures are
// genuinely whole-program findings: without a loader (no facts for
// imports) the analyzers report nothing on the same roots.
func TestCrossPackageNeedsFacts(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		analyzer string
		root     string
		wantSub  string
	}{
		{"nestedpark", "internal/lint/testdata/src/crosspark/p", "may park"},
	}
	for _, tc := range cases {
		analyzers, err := ByName(tc.analyzer)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.Load(tc.root)
		if err != nil {
			t.Fatal(err)
		}
		if diags := Run(analyzers, pkgs); len(diags) != 0 {
			t.Errorf("%s on %s without facts: got %d findings, want 0 (first: %s)",
				tc.analyzer, tc.root, len(diags), diags[0].Message)
		}
		diags := NewProgram(loader, pkgs).Run(analyzers)
		if len(diags) == 0 {
			t.Errorf("%s on %s with facts: no findings", tc.analyzer, tc.root)
			continue
		}
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, tc.wantSub) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s on %s: no finding contains %q", tc.analyzer, tc.root, tc.wantSub)
		}
	}
}
