// Command benchsuite regenerates the paper's evaluation: every table and
// figure of §4 plus the design-choice ablations and the extension studies,
// printed as tables of virtual-time measurements.
//
// Usage:
//
//	benchsuite [-exp all|NAME] [-dbseqs N] [-family N] [-querybytes N]
//	           [-mergescale-ranks 32,128] [-report suite.json] [-hints-out hints.json]
//	benchsuite -kernelbench [-bench-out BENCH_1.json] [-mergescale]
//
// NAME is any entry of the experiment catalogue (experiments.Specs; -h
// lists them); -exp all runs every entry in catalogue order. Times are
// virtual seconds from the cluster simulation; see EXPERIMENTS.md for the
// paper-vs-measured comparison. -report additionally writes the
// rows as a versioned machine-readable suite artifact (internal/report).
// -kernelbench instead measures the search kernel itself (wall-clock ns/op
// and allocs/op via testing.Benchmark) and writes the perf-trajectory record;
// with -mergescale it appends the merge-scalability sweep (flat vs tree
// master-merge time by rank count) so BENCH_N.json carries both curves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parblast/internal/blast"
	"parblast/internal/experiments"
	"parblast/internal/report"
)

// seedBaseline is the kernel benchmark record of the growth seed (pre-CSR,
// pre-scratch, sequential kernel), measured on the same fixture; kept in the
// trajectory file so each BENCH_N.json is self-contained.
var seedBaseline = []blast.KernelBenchResult{
	{Name: "SearchFragment", NsPerOp: 3690884, AllocsPerOp: 3697, BytesPerOp: 670457},
	{Name: "BuildIndexProtein", NsPerOp: 713432, AllocsPerOp: 6005, BytesPerOp: 263128},
	{Name: "ExtendGapped", NsPerOp: 544499, AllocsPerOp: 218, BytesPerOp: 56312},
}

func runKernelBench(outPath string, lab *experiments.Lab, mergeRanks []int) error {
	results := blast.RunKernelBenchmarks()
	doc := struct {
		Suite        string                      `json:"suite"`
		Results      []blast.KernelBenchResult   `json:"results"`
		Baseline     []blast.KernelBenchResult   `json:"seed_baseline"`
		MergeScale   []experiments.MergeScaleRow `json:"mergescale,omitempty"`
		MergeSpeedup map[string]float64          `json:"merge_speedup,omitempty"`
	}{Suite: "kernel", Results: results, Baseline: seedBaseline}
	if lab != nil {
		rows, err := experiments.MergeScale(lab, mergeRanks)
		if err != nil {
			return err
		}
		doc.Suite = "kernel+mergescale"
		doc.MergeScale = rows
		doc.MergeSpeedup = make(map[string]float64)
		speedup := experiments.MergeSpeedup(rows)
		for _, r := range rows {
			if r.Fanout == 0 {
				doc.MergeSpeedup[fmt.Sprintf("%d", r.Ranks)] = speedup[r.Ranks]
			}
		}
		ms, _ := experiments.Lookup("mergescale")
		experiments.PrintMergeScaleRows(os.Stdout, ms.Title, rows)
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-24s %12.0f ns/op %8d allocs/op %10d B/op\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// parseRankList parses a comma-separated rank-count list ("8,32").
func parseRankList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad rank count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	names := []string{"all"}
	for _, spec := range experiments.Specs() {
		names = append(names, spec.Name)
	}
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(names, ", "))
	hintsOut := flag.String("hints-out", "", "with -exp iotune (or all): write the learned-hints artifact to this path")
	dbSeqs := flag.Int("dbseqs", 0, "override database sequence count")
	family := flag.Int("family", 0, "override family size (database redundancy)")
	queryBytes := flag.Int("querybytes", 0, "override the default ('150 KB'-equivalent) query set volume")
	kernelBench := flag.Bool("kernelbench", false, "run the search-kernel micro-benchmarks and write the perf-trajectory JSON")
	benchOut := flag.String("bench-out", "BENCH_1.json", "output path for -kernelbench")
	withMergeScale := flag.Bool("mergescale", false, "with -kernelbench: append the merge-scalability sweep to the JSON")
	mergeRanksFlag := flag.String("mergescale-ranks", "", "comma-separated rank counts for the mergescale sweep (default 32,128,512,1024)")
	reportPath := flag.String("report", "", "write a machine-readable JSON suite artifact to this path")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}

	mergeRanks, err := parseRankList(*mergeRanksFlag)
	if err != nil {
		fail(err)
	}

	if *kernelBench {
		var benchLab *experiments.Lab
		if *withMergeScale {
			l := experiments.DefaultLab()
			benchLab = &l
		}
		if err := runKernelBench(*benchOut, benchLab, mergeRanks); err != nil {
			fail(err)
		}
		return
	}

	lab := experiments.DefaultLab()
	if *dbSeqs > 0 {
		lab.DB.NumSeqs = *dbSeqs
	}
	if *family > 0 {
		lab.DB.FamilySize = *family
	}
	if *queryBytes > 0 {
		lab.QuerySizes[2] = *queryBytes
	}

	specs := experiments.Specs()
	if *exp != "all" {
		spec, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		specs = []experiments.Spec{spec}
	}
	env := experiments.Env{Lab: &lab, Out: os.Stdout, MergeRanks: mergeRanks, HintsOut: *hintsOut}
	suite := report.NewSuite(*exp)
	for _, spec := range specs {
		rows, err := spec.Run(env)
		if err != nil {
			fail(fmt.Errorf("%s: %w", spec.Name, err))
		}
		if rows != nil {
			suite.Experiments = append(suite.Experiments, report.Experiment{
				Name: spec.Name, Title: spec.Title, Rows: rows,
			})
		}
	}

	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fail(err)
		}
		if err := suite.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("suite report → %s\n", *reportPath)
	}
}
