// Command hostbench is parblast's host-clock benchmark. It runs one
// workload through the public façade and the packages' exported
// functions, checks every run against the sequential oracle and the
// pinned virtual clocks, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a separate traced run (--trace 1). The last line
// of standard output is one JSON object; see README.md for the workloads
// and metrics.
//
//	go run . --workload pio-wide --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload name: pio-wide, mpi-narrow, pio-serve or merge-wide")
	seed := flag.Int64("seed", defaultSeed, "workload seed; DB, query and arrival seeds derive from it")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var rep *results
	if *traced == 1 {
		rep, err = runTraced(w, *seed, budget)
	} else {
		rep, err = runEndToEnd(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results collects a run's metrics in print order plus the gate's tally.
type results struct {
	workload string
	names    []string
	values   map[string]metric
	samples  map[string]int
	notes    []string // extra "#" lines, not in the JSON
	gate     *gate
}

func newResults(w workload, g *gate) *results {
	return &results{workload: w.name, values: map[string]metric{}, samples: map[string]int{}, gate: g}
}

// add records a metric; n > 0 states how many samples its median has.
func (r *results) add(name, unit string, v float64, n int) {
	if _, dup := r.values[name]; !dup {
		r.names = append(r.names, name)
	}
	r.values[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.samples[name] = n
	}
}

// note adds a line to the human-readable output only.
func (r *results) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *results) correct() bool { return r.gate.failed == 0 && r.gate.attempted > 0 }

// print writes one human-readable line per metric, then the result as one
// JSON object on the last line.
func (r *results) print(f *os.File) {
	for _, e := range r.gate.errors {
		fmt.Fprintf(f, "# FAIL %s: %s\n", r.workload, e)
	}
	fmt.Fprintf(f, "# %s fail_frac=%g (%d of %d runs failed a check)\n", r.workload,
		float64(r.gate.failed)/float64(max(r.gate.attempted, 1)), r.gate.failed, r.gate.attempted)
	fmt.Fprintf(f, "# virtual %s\n", r.gate.observed)
	for _, n := range r.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	for _, n := range r.names {
		m := r.values[n]
		line := fmt.Sprintf("# %-28s %16.6f %s", n, m.Value, m.Unit)
		if k := r.samples[n]; k > 0 {
			line += fmt.Sprintf("  (median of %d)", k)
		}
		fmt.Fprintln(f, line)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.gate.attempted, r.gate.failed, r.values}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(f, string(data))
}
