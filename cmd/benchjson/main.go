// Command benchjson converts `go test -bench` text output into a stable
// JSON document (the committed ledger is BENCH_baseline.json), and compares
// a fresh run against such a document for the CI regression smoke.
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson -o BENCH_baseline.json
//	go run ./cmd/benchjson -compare BENCH_baseline.json bench-smoke.txt
//
// Compare mode prints a warning line per metric that regressed beyond the
// threshold and by default exits 0: bench-smoke timings (one iteration,
// shared CI hardware) are too noisy to gate a build on wholesale, but the
// warnings make drift visible in the job log.
//
// The -gate flag promotes a subset to a hard gate: benchmarks whose name
// matches the regexp fail the compare (exit 1) when their ns/op regresses
// beyond -gate-threshold (default 1.25, i.e. >25% slower than baseline).
// Gated benchmarks should be run with a real -benchtime, not 1x:
//
//	go test -bench 'NextAfter' -benchtime=100x ./... | \
//	    go run ./cmd/benchjson -compare BENCH_baseline.json \
//	        -gate 'BenchmarkNextAfter' -gate-threshold 1.25
//
// -gate-allocs-threshold (0 = off) additionally fails gated benchmarks whose
// allocs/op grows beyond that factor of the baseline — allocation counts are
// deterministic per build, so a tighter factor than ns/op is safe. A
// baseline of 0 allocs/op tolerates up to 2 allocs/op of measurement slack
// before failing (a steady-state zero-allocation loop must stay one).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result: the trailing -N GOMAXPROCS suffix is
// stripped from the name so runs from differently shaped machines compare.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// Host stamps a row re-recorded apart from the file's sweep: cpu model,
	// nproc and GOMAXPROCS of the machine that measured it.
	Host string `json:"host,omitempty"`
}

// Report is the benchmark JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	baseline := flag.String("compare", "", "baseline JSON file: compare instead of convert")
	threshold := flag.Float64("threshold", 2.0, "warn when a metric grows beyond this factor of the baseline")
	gate := flag.String("gate", "", "regexp of benchmark names whose ns/op regressions fail the compare")
	gateThreshold := flag.Float64("gate-threshold", 1.25, "fail when a gated benchmark's ns/op grows beyond this factor")
	gateAllocs := flag.Float64("gate-allocs-threshold", 0, "also fail when a gated benchmark's allocs/op grows beyond this factor (0 disables)")
	flag.Parse()

	if *baseline != "" {
		var gateRe *regexp.Regexp
		if *gate != "" {
			re, err := regexp.Compile(*gate)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: bad -gate:", err)
				os.Exit(1)
			}
			gateRe = re
		}
		if err := compare(*baseline, flag.Arg(0), *threshold, gateRe, *gateThreshold, *gateAllocs); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	rep, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output. Non-benchmark lines (test results,
// package headers, PASS/ok) are skipped; goos/goarch/cpu headers are kept.
// A benchmark appearing more than once (a `-count=N` run) keeps its fastest
// instance — best-of-N is the stable statistic on shared hardware, and it
// means a gated regression must reproduce in every repetition to fail.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	byName := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			if j, seen := byName[b.Name]; seen {
				if b.Metrics["ns/op"] < rep.Benchmarks[j].Metrics["ns/op"] {
					rep.Benchmarks[j] = b
				}
				continue
			}
			byName[b.Name] = len(rep.Benchmarks)
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	return rep, nil
}

// parseLine decodes one result line:
//
//	BenchmarkName/sub-8   1234   5678 ns/op   91 B/op   2 allocs/op
//
// Metrics are (value, unit) pairs after the iteration count; custom
// b.ReportMetric units come through unchanged.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

func load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// zeroAllocsSlack is the absolute allocs/op a gated benchmark with a
// zero-alloc baseline may grow to before the allocs gate fails it: a ratio
// gate cannot catch 0 -> N regressions.
const zeroAllocsSlack = 2

// compare prints drift between a baseline JSON and a current run (a JSON
// file when the argument ends in .json, otherwise bench text — "-" or empty
// reads text from stdin). Metric growth beyond `threshold` warns; for
// benchmarks matching gateRe, ns/op growth beyond gateThreshold fails the
// compare with a non-nil error, as does allocs/op growth beyond
// allocsThreshold when that is non-zero.
func compare(basePath, curPath string, threshold float64, gateRe *regexp.Regexp, gateThreshold, allocsThreshold float64) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	var cur *Report
	if strings.HasSuffix(curPath, ".json") {
		if cur, err = load(curPath); err != nil {
			return err
		}
	} else {
		in := io.Reader(os.Stdin)
		if curPath != "" && curPath != "-" {
			f, err := os.Open(curPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		if cur, err = parse(in); err != nil {
			return err
		}
	}
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	warned, failed, gated := 0, 0, 0
	for _, b := range cur.Benchmarks {
		prev, ok := baseBy[b.Name]
		if !ok {
			continue
		}
		if gateRe != nil && gateRe.MatchString(b.Name) {
			gated++
			pv, pok := prev.Metrics["ns/op"]
			if v, vok := b.Metrics["ns/op"]; pok && vok && pv > 0 && v > pv*gateThreshold {
				fmt.Printf("FAIL %s: ns/op %.6g -> %.6g (%.2fx over baseline, gate %.2fx)\n",
					b.Name, pv, v, v/pv, gateThreshold)
				failed++
			}
			if allocsThreshold > 0 {
				pa, paok := prev.Metrics["allocs/op"]
				if a, aok := b.Metrics["allocs/op"]; paok && aok {
					limit := pa * allocsThreshold
					if pa == 0 {
						limit = zeroAllocsSlack
					}
					if a > limit {
						fmt.Printf("FAIL %s: allocs/op %.6g -> %.6g (limit %.6g, allocs gate %.2fx)\n",
							b.Name, pa, a, limit, allocsThreshold)
						failed++
					}
				}
			}
		}
		for unit, v := range b.Metrics {
			pv, ok := prev.Metrics[unit]
			if !ok || pv <= 0 {
				continue
			}
			if v > pv*threshold {
				fmt.Printf("WARN %s: %s %.6g -> %.6g (%.2fx over baseline, threshold %.2fx)\n",
					b.Name, unit, pv, v, v/pv, threshold)
				warned++
			}
		}
	}
	fmt.Printf("benchjson: compared %d benchmarks against %s: %d warning(s), %d gated, %d gate failure(s)\n",
		len(cur.Benchmarks), basePath, warned, gated, failed)
	if failed > 0 {
		return fmt.Errorf("%d gated benchmark regression(s)", failed)
	}
	return nil
}
