// Command benchjson runs the measurement-hot-path benchmarks via
// `go test -bench` and re-emits the results as one JSON document, so CI can
// archive a BENCH_autotune.json per commit and the perf trajectory of the
// tuning engine is tracked across PRs.
//
// Usage:
//
//	go run ./cmd/benchjson [-o BENCH_autotune.json] [-bench regex] [-benchtime 1s]
//
// The benchmark bodies live in bench_test.go (and the package benchmarks
// under internal/...) — this wrapper only drives and parses them, so there
// is exactly one definition of each benchmark. Any benchmark failure makes
// the wrapper exit non-zero instead of archiving bogus numbers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

type row struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// defaultBench selects the hot-path benchmarks: the dry-measurement unit of
// work, the wet kernels, the conv-shaped GEMM, the network-level sweeps
// (cold, and warm-started via the cross-layer transfer pool), the
// resumed-search path, the allocation-free cache key, and the search-engine
// overhead pair (the bound-guided loop vs its pre-rework baseline, and the
// incremental vs from-scratch cost-model refit), the cost model's refit
// sequence as a warm-started search runs it (GBTRefit), and the measurement-free
// analytic verdict the daemon degrades to (scan = cold per-space enumeration,
// serve = the memoized steady state, which must stay well under 1ms/network),
// and the daemon's fully cached request (ServeHit: the serve path's latency
// budget, against a zoo-sized and a larger cache).
const defaultBench = "BenchmarkMeasureDry|BenchmarkDirectTiledWet|BenchmarkWinogradFusedWet|BenchmarkTuneNetwork|BenchmarkTuneNetworkWarm|BenchmarkTuneNetworkMixedKinds|BenchmarkTuneResume|BenchmarkCacheKey|BenchmarkBlockedConvShape|BenchmarkTuneEngine|BenchmarkTrainGBTIncremental|BenchmarkGBTRefit|BenchmarkAnalyticVerdict|BenchmarkServeHit"

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkMeasureDry-8  63677128  31.86 ns/op  0 B/op  0 allocs/op
//	BenchmarkFig11-8       1  1.2e9 ns/op  812.5 ate-final-gflops  ...
func parseLine(line string) (row, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return row{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the trailing -GOMAXPROCS, keeping sub-benchmark names.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return row{}, false
	}
	r := row{Name: strings.TrimPrefix(name, "Benchmark"), Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return row{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = int64(val)
		case "allocs/op":
			r.AllocsPerOp = int64(val)
		case "MB/s":
			// not reported by this repo's benchmarks; ignore
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = val
		}
	}
	return r, true
}

func main() {
	outPath := flag.String("o", "BENCH_autotune.json", "output JSON path")
	bench := flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value")
	flag.Parse()

	cmd := exec.Command("go", "test", "-run=NONE", "-bench", *bench,
		"-benchtime", *benchtime, "-benchmem", "./...")
	out, err := cmd.CombinedOutput()
	os.Stderr.Write(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n", err)
		os.Exit(1)
	}

	var rows []row
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed")
		os.Exit(1)
	}

	f, err := os.Create(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *outPath, len(rows))
}
