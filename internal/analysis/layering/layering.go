// Package layering is a vet pass that keeps the dependency direction between
// the two products built in this module: the service calbench measures
// (core, caldb, rules, store, chronology, serve) and the reproduction of the
// paper's POSTGRES embedding (postquel, datearith, timeseries, multical) that
// the goldens and E1–E11 pin. The reproduction is built on the service, never
// the reverse, so a refactor of the core needs no postquel edit:
//
//   - no service package imports a reproduction package;
//   - no internal package imports the root façade, which is assembled from
//     them — except internal/serve, whose Tenant.System() hands calbench's
//     replica (bench/replay.go) a *calsys.System. That edge links the whole
//     reproduction into calserved; it goes when the replica reads stage
//     timers from the product instead (ROADMAP item 7(d), a [benchmark] PR).
//
// A package is placed by its directory, from the last "internal" element on.
package layering

import (
	"path/filepath"
	"strconv"
	"strings"

	"calsys/internal/analysis"
)

// Analyzer is the layering pass.
var Analyzer = &analysis.Analyzer{
	Name: "layering",
	Doc: "flag service packages importing the reproduction, and internal " +
		"packages other than internal/serve importing the root façade",
	Run: run,
}

const module = "calsys"

var (
	service      = []string{"internal/core", "internal/caldb", "internal/rules", "internal/store", "internal/chronology", "internal/serve"}
	reproduction = []string{"internal/postquel", "internal/datearith", "internal/timeseries", "internal/multical"}
)

func run(pass *analysis.Pass) error {
	abs, err := filepath.Abs(pass.Dir)
	if err != nil {
		return err
	}
	dir := filepath.ToSlash(abs)
	i := strings.LastIndex(dir, "/internal/")
	if i < 0 {
		return nil
	}
	pkg := dir[i+1:]
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			target, inModule := strings.CutPrefix(path, module+"/")
			switch {
			case path == module && pkg != "internal/serve":
				pass.Report(imp.Pos(), "%s imports the root façade, which is built from the internal packages (only internal/serve may)", pkg)
			case inModule && within(pkg, service) && within(target, reproduction):
				pass.Report(imp.Pos(), "service package %s imports reproduction package %s", pkg, target)
			}
		}
	}
	return nil
}

// within reports whether pkg is one of trees or below one.
func within(pkg string, trees []string) bool {
	for _, t := range trees {
		if pkg == t || strings.HasPrefix(pkg, t+"/") {
			return true
		}
	}
	return false
}
