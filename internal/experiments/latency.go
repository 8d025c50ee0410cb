package experiments

import (
	"fmt"
	"io"

	"parblast/internal/core"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/report"
	"parblast/internal/seq"
	"parblast/internal/trace"
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
	queries, err := lab.queries(lab.QuerySizes[1])
	if err != nil {
		return nil, err
	}
	var rows []LatencyRow
	for _, procs := range []int{8, 16} {
		for _, p := range latencyProtocols() {
			row, err := runLatencySpec(lab, queries, p.eng, p.name, procs, p.tree)
			if err != nil {
				return nil, fmt.Errorf("latency %s p=%d: %w", p.name, procs, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runLatencySpec executes one protocol on a fresh cluster with the trace
// collector and flow recording attached (phase-table runs are untraced),
// then folds the collector into the latency/critical-path row.
func runLatencySpec(lab *Lab, queries []*seq.Sequence, eng, proto string, procs int, tree bool) (LatencyRow, error) {
	row := LatencyRow{Protocol: proto, Engine: eng, Procs: procs}
	col := trace.NewCollector()
	cfg := mpi.Config{
		Observer: col.Observer,
		OnFlow: func(f mpi.FlowEvent) {
			col.RecordFlow(trace.Flow{
				Kind: f.Kind, Op: f.Op, ID: f.ID, Batch: f.Batch,
				Src: f.Src, Dst: f.Dst, Bytes: f.Bytes,
				SendAt: f.SendAt, RecvAt: f.RecvAt,
			})
		},
	}
	o, err := execute(runSpec{
		lab: lab, plat: altix(), engineName: eng, procs: procs, queries: queries, cfg: cfg,
		mpi: mpiblast.Options{TreeMerge: tree}, pio: core.Options{TreeMerge: tree, QueryBatch: 2},
	})
	if err != nil {
		return row, err
	}
	row.Wall = o.res.Wall
	row.Latency = report.LatencySummaryOf(o.res.QueryLatencies)
	row.Path = report.ExactCriticalPath(col)
	return row, nil
}

// printLatencyRows renders the latency sweep: the percentile table plus
// the critical-path blame breakdown per run.
func printLatencyRows(w io.Writer, title string, rows []LatencyRow) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
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

// latencySuiteRows flattens latency-sweep rows into the suite artifact's
// row shape: the percentile block rides the summary's query_latency field,
// and the critical path's dominant blame labels the row.
func latencySuiteRows(rows []LatencyRow) []report.SuiteRow {
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		label := r.Protocol
		if r.Path != nil {
			label = fmt.Sprintf("%s dominant=%s", r.Protocol, r.Path.Dominant)
		}
		out = append(out, report.SuiteRow{
			Label:  label,
			Engine: r.Engine,
			Procs:  r.Procs,
			Summary: report.RunSummary{
				Wall:         r.Wall,
				QueryLatency: r.Latency,
			},
		})
	}
	return out
}
