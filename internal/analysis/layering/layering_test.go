package layering_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calsys/internal/analysis"
	"calsys/internal/analysis/layering"
)

// plant writes one file importing path into dir (created below root) and
// returns the pass's findings on that directory.
func plant(t *testing.T, root, dir, path string) []analysis.Diagnostic {
	t.Helper()
	dir = filepath.Join(root, dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package p\n\nimport _ \"" + path + "\"\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run([]string{dir}, []*analysis.Analyzer{layering.Analyzer}, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestLayeringFindings(t *testing.T) {
	root := t.TempDir()
	for _, tc := range []struct {
		dir, imports, want string // want "" = clean
	}{
		{"internal/serve", "calsys/internal/postquel", "service package internal/serve imports reproduction package internal/postquel"},
		{"internal/core/plan", "calsys/internal/multical", "service package internal/core/plan imports reproduction package internal/multical"},
		{"internal/caldb", "calsys", "internal/caldb imports the root façade"},
		{"internal/postquel", "calsys", "internal/postquel imports the root façade"},
		{"internal/serve/ok", "calsys/internal/caldb", ""},
		{"internal/timeseries", "calsys/internal/caldb", ""}, // the reproduction builds on the service
		{"internal/postquel/ok", "calsys/internal/datearith", ""},
		{"cmd/tool", "calsys", ""},
	} {
		diags := plant(t, root, tc.dir, tc.imports)
		switch {
		case tc.want == "" && len(diags) != 0:
			t.Errorf("%s importing %s flagged:\n%v", tc.dir, tc.imports, diags)
		case tc.want != "" && (len(diags) != 1 || !strings.Contains(diags[0].Message, tc.want) || diags[0].Pos.Line != 3):
			t.Errorf("%s importing %s: want exactly one finding %q at line 3, got\n%v", tc.dir, tc.imports, tc.want, diags)
		}
	}
	// The one allowed façade edge.
	if diags := plant(t, root, "internal/serve", "calsys"); len(diags) != 0 {
		t.Errorf("internal/serve importing the façade flagged:\n%v", diags)
	}
}

// The repository itself must vet clean — this is what CI enforces via
// cmd/vet-calsys.
func TestRepositoryIsClean(t *testing.T) {
	diags, err := analysis.Run([]string{"../../../..."}, []*analysis.Analyzer{layering.Analyzer}, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("repository has layering findings:\n%v", diags)
	}
}
