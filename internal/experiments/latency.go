package experiments

import (
	"fmt"
	"io"

	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/report"
	"parblast/internal/trace"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// The latency experiment: the per-query accounting view of the paper's
// serialization argument. Both engines run with causal flow tracing on,
// across rank counts and merge protocols; each run yields the exact
// per-query latency percentiles (admission → result-merge completion) and
// the wait-for analyzer's critical-path blame breakdown. The expected
// shape: mpiBLAST's serialized merge makes later queries wait on earlier
// ones (tail percentiles grow with the query count and the critical path
// blames the master's fetch round-trips), while pioBLAST's batched
// collective output keeps the percentile spread flat.

// LatencyRow is one (protocol, procs) latency measurement.
type LatencyRow struct {
	Protocol string
	Engine   string
	Procs    int
	Wall     float64
	// Latency is the exact per-query percentile block (never nil on a
	// successful run).
	Latency *report.LatencySummary
	// Path is the wait-for analyzer's exact critical path for the run.
	Path *report.ExactPath
}

// latencyProtocols is the protocol sweep: both engines, flat and
// hierarchical merge.
func latencyProtocols() []struct {
	name string
	eng  string
	tree bool
} {
	return []struct {
		name string
		eng  string
		tree bool
	}{
		{"mpi-flat", "mpi", false},
		{"mpi-tree", "mpi", true},
		{"pio-flat", "pio", false},
		{"pio-tree", "pio", true},
	}
}

// Latency sweeps ranks × protocols with flow tracing enabled.
func Latency(lab *Lab) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, procs := range []int{8, 16} {
		for _, p := range latencyProtocols() {
			row, err := runLatencySpec(lab, p.eng, p.name, procs, p.tree)
			if err != nil {
				return nil, fmt.Errorf("latency %s p=%d: %w", p.name, procs, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runLatencySpec executes one protocol on a fresh cluster with the trace
// collector and flow recording attached (the generic execute() runs
// untraced), then folds the collector into the latency/critical-path row.
func runLatencySpec(lab *Lab, eng, proto string, procs int, tree bool) (LatencyRow, error) {
	row := LatencyRow{Protocol: proto, Engine: eng, Procs: procs}
	plat := altix()
	nodes, err := vfs.Cluster(procs, plat.shared, plat.local)
	if err != nil {
		return row, err
	}
	seqs, err := workload.SynthesizeDB(lab.DB)
	if err != nil {
		return row, err
	}
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: lab.DB.Kind,
	}); err != nil {
		return row, err
	}
	queries, err := lab.queries(lab.QuerySizes[1])
	if err != nil {
		return row, err
	}
	job := &engine.Job{
		DBBase:     "nr",
		Queries:    queries,
		Options:    lab.Options,
		OutputPath: "results.out",
	}
	col := trace.NewCollector()
	cfg := mpi.Config{
		Cost:     lab.Cost,
		Observer: col.Observer,
		OnFlow: func(f mpi.FlowEvent) {
			col.RecordFlow(trace.Flow{
				Kind: f.Kind, Op: f.Op, ID: f.ID, Batch: f.Batch,
				Src: f.Src, Dst: f.Dst, Bytes: f.Bytes,
				SendAt: f.SendAt, RecvAt: f.RecvAt,
			})
		},
	}
	var res engine.RunResult
	switch eng {
	case "mpi":
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", procs-1); err != nil {
			return row, err
		}
		res, err = mpiblast.Run(nodes, procs, cfg, job, mpiblast.Options{TreeMerge: tree})
	case "pio":
		res, err = core.Run(nodes, procs, cfg, job, core.Options{TreeMerge: tree, QueryBatch: 2})
	default:
		err = fmt.Errorf("experiments: unknown engine %q", eng)
	}
	if err != nil {
		return row, err
	}
	row.Wall = res.Wall
	row.Latency = report.LatencySummaryOf(res.QueryLatencies)
	row.Path = report.ExactCriticalPath(col)
	return row, nil
}

// PrintLatencyRows renders the latency sweep: the percentile table plus
// the critical-path blame breakdown per run.
func PrintLatencyRows(w io.Writer, rows []LatencyRow) {
	fmt.Fprintf(w, "\n== Per-query latency and exact critical path (ranks × protocols) ==\n")
	fmt.Fprintf(w, "%-10s %5s %5s | %8s %8s %8s %8s | %-14s %8s %8s %8s %8s %8s\n",
		"protocol", "procs", "n",
		"p50", "p95", "p99", "max",
		"dominant", "net", "peerwait", "io", "search", "other")
	for _, r := range rows {
		ls := r.Latency
		if ls == nil {
			ls = &report.LatencySummary{}
		}
		var blame report.BlameBreakdown
		dominant := "-"
		if r.Path != nil {
			blame = r.Path.Blame
			dominant = r.Path.Dominant
		}
		fmt.Fprintf(w, "%-10s %5d %5d | %8.3f %8.3f %8.3f %8.3f | %-14s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			r.Protocol, r.Procs, ls.Count,
			ls.P50, ls.P95, ls.P99, ls.Max,
			dominant, blame.Net, blame.PeerNotReady, blame.IO, blame.Search, blame.Other)
	}
}
