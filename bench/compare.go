package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is how one (workload, metric) pair of B reads against A.
type verdict string

const (
	vOK         verdict = "ok"         // B's median is no worse than A's by more than the bound
	vRegressed  verdict = "REGRESSED"  // B's median is worse than A's by more than the bound
	vUnresolved verdict = "unresolved" // the spread of A's own runs exceeds the bound
)

// judge applies the rule of the choosing-metrics guide: no regression means
// B's median is no worse than A's by more than the bound; when A's own runs
// spread wider than the bound the pair is unresolved, unless every run of B
// reads better than every run of A. change is the share of A's median by
// which B is worse (negative: better).
func judge(def metricDef, a, b []float64) (v verdict, change float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := mb - ma
	if def.Better == "higher" {
		worse = ma - mb
	}
	if ma != 0 {
		change = worse / ma
	}
	if spread(a) > def.Bound && !allBetter(def, a, b) {
		return vUnresolved, change
	}
	if change > def.Bound {
		return vRegressed, change
	}
	return vOK, change
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(def metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if def.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, metric) and returns an error
// when any pair regressed.
func compareFiles(sp *spec, pathA, pathB string, w io.Writer) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if a.Stamp != b.Stamp {
		fmt.Fprintf(w, "# machine stamps differ: %+v vs %+v\n", a.Stamp, b.Stamp)
	}
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %9s %7s %8s  %s\n", "workload", "metric", "A median", "B median", "B worse", "bound", "A spread", "verdict")
	regressed := 0
	for _, name := range workloadNames {
		for _, d := range sp.EndToEnd {
			va, vb := a.EndToEnd[name][d.Name], b.EndToEnd[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := judge(d, va, vb)
			if v == vRegressed {
				regressed++
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(w, "%-12s %-16s %12.4f %12.4f %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				name, d.Name, ma, mb, 100*change, 100*d.Bound, 100*spread(va), v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed", regressed)
	}
	return nil
}
