// Command vet-calsys is the repository's multichecker: it runs the
// project-specific Go vet passes (tickzero, the no-zero tick convention;
// errcode, the structured error-envelope convention for HTTP handlers;
// layering, the service → reproduction dependency direction) over the
// packages matched by its arguments.
//
//	vet-calsys [-tests] [pattern ...]       (default pattern: ./...)
//
// Findings print as "path:line:col: [analyzer] message"; the exit status is
// 1 when any finding is reported. `make check` and CI run it alongside the
// standard go vet.
package main

import (
	"fmt"
	"io"
	"os"

	"calsys/internal/analysis"
	"calsys/internal/analysis/errcode"
	"calsys/internal/analysis/layering"
	"calsys/internal/analysis/tickzero"
)

// analyzers is the multichecker's pass registry.
var analyzers = []*analysis.Analyzer{
	errcode.Analyzer,
	layering.Analyzer,
	tickzero.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts := analysis.Options{}
	var patterns []string
	for _, a := range args {
		switch a {
		case "-tests", "--tests":
			opts.IncludeTests = true
		case "-h", "-help", "--help":
			fmt.Fprintln(stderr, "usage: vet-calsys [-tests] [pattern ...]")
			return 2
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.Run(patterns, analyzers, opts)
	if err != nil {
		fmt.Fprintln(stderr, "vet-calsys:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
