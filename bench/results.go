package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// historyPath accumulates one line per result set: the bench trajectory.
const historyPath = "bench/history.jsonl"

// environment stamps a result set with what it was measured on.
type environment struct {
	Time       string         `json:"time"`
	Commit     string         `json:"commit"`
	Go         string         `json:"go"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GOGC       int            `json:"gogc"`
	NumCPU     int            `json:"nproc"`
	CPU        string         `json:"cpu"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Runs       int            `json:"runs"`
	Clients    map[string]int `json:"clients"` // per workload
	// Server is the daemon configuration every workload starts from
	// (daemonConfig); shed-analytic adds the dead backend and the breaker,
	// cluster-mixed three replicas at replication factor 2.
	Server serverStamp `json:"server"`
}

type serverStamp struct {
	Arch          string `json:"arch"`
	Budget        int    `json:"budget"`
	Patience      int    `json:"patience"`
	EngineSeed    int64  `json:"engine_seed"`
	Winograd      bool   `json:"winograd"`
	Warm          bool   `json:"warm"`
	BatchWindowMS int64  `json:"batch_window_ms"`
}

func stamp(seed int64, seconds, runs int) environment {
	cfg := daemonConfig()
	env := environment{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: "unknown", Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gcPercent, NumCPU: runtime.NumCPU(), CPU: "unknown",
		Seed: seed, Seconds: seconds, Runs: runs, Clients: clients,
		Server: serverStamp{Arch: archName, Budget: cfg.Tune.Budget, Patience: cfg.Tune.Patience,
			EngineSeed: cfg.Tune.Seed, Winograd: cfg.Winograd, Warm: cfg.Warm,
			BatchWindowMS: cfg.BatchWindow.Milliseconds()},
	}
	// Outside a git checkout, or without /proc, the stamp says "unknown".
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(rev))
		if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
			env.Commit += "+dirty"
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, model, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPU = strings.TrimSpace(model)
				break
			}
		}
	}
	return env
}

// workloadResults holds one workload's values, one per run.
type workloadResults struct {
	Attempted []int                `json:"attempted"`
	Failed    []int                `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
}

// resultSet is what running every workload produces: a line of the history
// and an operand of -compare.
type resultSet struct {
	Env       environment                 `json:"env"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// spread is the distance between the quartiles as a share of the median,
// the steadiness measure the benchmark's acceptance is stated in; 0 for
// fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// print writes every metric by name with its unit.
func (s resultSet) print() {
	for _, w := range workloadDefs {
		wr := s.Workloads[w.Name]
		fmt.Printf("\n%s — attempted %v, failed %v\n", w.Name, wr.Attempted, wr.Failed)
		for _, group := range []struct {
			defs   []metricDef
			values map[string][]float64
		}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
			for _, d := range group.defs {
				v := group.values[d.Name]
				if len(v) == 0 {
					fmt.Printf("  %-28s %14s\n", d.Name, "missing")
					continue
				}
				fmt.Printf("  %-28s %14.6g %-6s", d.Name, median(v), d.Unit)
				if len(v) > 1 {
					fmt.Printf("  spread %.3f over %d runs", spread(v), len(v))
				}
				fmt.Println()
			}
		}
	}
}

// save writes the set to path and appends it, as one line, to the history.
func (s resultSet) save(path string) error {
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	h, err := os.OpenFile(historyPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := h.Write(append(data, '\n')); err != nil {
		h.Close()
		return err
	}
	return h.Close()
}

func loadResultSet(path string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles applies each end-to-end metric's bound to two result sets,
// per workload: "worse" when the new median is worse than the old by more
// than the bound, "unresolved" when either side's spread is wider than the
// bound (unless every new run beats every old one), else "ok". It fails if
// anything is worse.
func compareFiles(oldPath, newPath string) error {
	a, err := loadResultSet(oldPath)
	if err != nil {
		return err
	}
	b, err := loadResultSet(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old %s (%s)  new %s (%s)\n", a.Env.Commit, a.Env.Time, b.Env.Commit, b.Env.Time)
	worse := 0
	for _, w := range workloadDefs {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-14s missing from one set\n", w.Name)
			worse++
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-20s missing from one set\n", w.Name, d.Name)
				worse++
				continue
			}
			ma, mb := median(va), median(vb)
			// change > 0 is a worsening, whichever direction is better.
			change := (mb - ma) / ma
			allBetter := slices.Min(va) > slices.Max(vb)
			if d.Better == "higher" {
				change = -change
				allBetter = slices.Max(va) < slices.Min(vb)
			}
			verdict := "ok"
			switch {
			case max(spread(va), spread(vb)) > d.Bound && !allBetter:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-14s %-20s %12.6g -> %12.6g %-6s %+7.2f%% (bound %2.0f%%, spread %.3f / %.3f)  %s\n",
				w.Name, d.Name, ma, mb, d.Unit, 100*(mb-ma)/ma, 100*d.Bound, spread(va), spread(vb), verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse than their bound allows", worse)
	}
	return nil
}
