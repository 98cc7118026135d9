package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRepositoryVetsClean(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"../../..."}, &out, &errb); code != 0 {
		t.Errorf("vet-calsys ../../...: exit %d\n%s%s", code, out.String(), errb.String())
	}
}

func TestFindingsExitNonZero(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "calsys/internal/core/interval"

var bad = interval.Interval{Lo: 0, Hi: 5}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	code := run([]string{dir}, &out, &errb)
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "[tickzero]") || !strings.Contains(out.String(), "p.go:5:") {
		t.Errorf("output:\n%s", out.String())
	}

	// A service package importing the reproduction fails the layering pass.
	svc := filepath.Join(dir, "internal", "serve")
	if err := os.MkdirAll(svc, 0o755); err != nil {
		t.Fatal(err)
	}
	src = "package serve\n\nimport _ \"calsys/internal/postquel\"\n"
	if err := os.WriteFile(filepath.Join(svc, "s.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{svc}, &out, &errb); code != 1 || strings.Count(out.String(), "\n") != 1 ||
		!strings.Contains(out.String(), "s.go:3:8: [layering]") {
		t.Errorf("planted service → reproduction import: exit %d, output:\n%s", code, out.String())
	}
}

func TestUsageAndBadPattern(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-help"}, &out, &errb); code != 2 {
		t.Errorf("-help exit = %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/nope"}, &out, &errb); code != 2 {
		t.Errorf("bad pattern exit = %d, want 2", code)
	}
}
