// Command bench is the repo's benchmark: four workloads against in-process
// tuned daemons on loopback listeners; end-to-end metrics from an untraced
// run, per-layer metrics and a stage-replay trace from a traced one. See
// README.md beside this file.
//
//	bash bench/run.sh --workload hit-replay --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh                       # every workload, untraced then traced
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -registry > BENCHMARK.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
)

// runSeconds is the window length BENCHMARK.json asks the driver for.
const runSeconds = 8

// gcPercent is the GOGC a run gives its process. Client, harness and daemons
// share one heap of a few MiB, so at the default of 100 a collection starts
// every few MiB allocated — hundreds a second on shed-analytic — and how long
// those take swings with the state of the box: ten runs of shed-analytic
// spread 29% in req_p50_ms at 100 and 5% at 400. The setting is the same for
// every commit measured, and the live heap is read after a forced collection
// either way.
const gcPercent = 400

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result as the last line (empty: run them all, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", runSeconds, "length of the timed window")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics and write bench/out/trace-<workload>.json")
	runs := flag.Int("runs", 3, "untraced runs per workload when running them all, on seeds seed, seed+1, ...")
	out := flag.String("out", outDir+"/results.json", "where running them all writes its result set")
	compare := flag.Bool("compare", false, "compare two result sets: bench -compare old.json new.json")
	registry := flag.Bool("registry", false, "print BENCHMARK.json as the harness's registry defines it")
	flag.Parse()

	var err error
	switch {
	case *registry:
		err = printRegistry()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result-set files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *workload != "":
		err = runWorkload(*workload, *seed, *seconds, *trace == 1)
	default:
		err = runAll(*seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printRegistry prints the file the driver reads. BENCHMARK.json is kept by
// hand to that contract; this is how it is regenerated after the registry
// changes (the smoke test fails while the two differ).
func printRegistry() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   workloadDefs,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	})
}

// runWorkload is one run as the driver asks for it: the result is the last
// line of standard output.
func runWorkload(workload string, seed int64, seconds int, trace bool) error {
	debug.SetGCPercent(gcPercent)
	res, err := runOnce(workload, seed, seconds, trace, scale{})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d requests failed", workload, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload in a process of its own, exactly as the driver
// does: untraced `runs` times on consecutive seeds, then traced once. It
// prints every metric with its unit, writes the result set and appends it
// to the history.
func runAll(seed int64, seconds, runs int, out string) error {
	set := resultSet{Env: stamp(seed, seconds, runs), Workloads: make(map[string]*workloadResults)}
	var failed error
	for _, w := range workloadDefs {
		wr := &workloadResults{EndToEnd: make(map[string][]float64), PerLayer: make(map[string][]float64)}
		set.Workloads[w.Name] = wr
		for r := 0; r <= runs; r++ {
			traced := r == runs
			s := seed + int64(r)
			if traced {
				s = seed
			}
			fmt.Printf("== %s seed %d trace %v\n", w.Name, s, traced)
			res, err := runChild(w.Name, s, seconds, traced)
			if err != nil {
				failed = fmt.Errorf("%s: %w", w.Name, err)
				fmt.Println("FAIL", failed)
				continue
			}
			wr.Attempted = append(wr.Attempted, res.Attempted)
			wr.Failed = append(wr.Failed, res.Failed)
			into := wr.EndToEnd
			if traced {
				into = wr.PerLayer
			}
			for name, v := range res.Metrics {
				into[name] = append(into[name], v.Value)
			}
			if res.Failed > 0 {
				failed = fmt.Errorf("%s: %d of %d requests failed", w.Name, res.Failed, res.Attempted)
			}
		}
	}
	set.print()
	if err := set.save(out); err != nil {
		return err
	}
	return failed
}

// runChild runs one workload in a child process and returns the result it
// printed last. The child's other output passes through.
func runChild(workload string, seed int64, seconds int, trace bool) (result, error) {
	var res result
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", t)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	werr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if werr != nil {
			return res, werr
		}
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
