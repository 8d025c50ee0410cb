package experiments

import (
	"bytes"
	"fmt"
	"io"

	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/report"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// The SLA experiment: both engines in serving mode under an open-loop
// arrival stream. Three sweeps per engine:
//
//   - rate: the same batch sequence (same seed — arrival times scale
//     exactly with 1/rate and nothing else changes) pushed at increasing
//     rates. By Lindley's recursion the per-batch queueing delay is weakly
//     non-decreasing in the rate, so "p99 non-decreasing along the rate
//     sweep" is a deterministic gate, not a statistical one.
//   - batch: batch-size distributions at a fixed mid rate — how admission
//     granularity moves the tail.
//   - shed: a bounded admission queue under a bursty overload — the
//     deterministic drop-newest shedding in action (the saturation row).
//
// Every streamed run is verified byte-identical to a one-shot run over
// exactly its admitted queries before the row is reported.

// SLARow is one serving-mode measurement.
type SLARow struct {
	Label     string
	Engine    string
	Procs     int
	Sweep     string // "rate", "batch", or "shed"
	Rate      float64
	Burst     float64
	BatchMean int
	AdmitCap  int
	Arrivals  int
	Admitted  int
	Shed      int
	// Latency is the exact percentile block over ADMITTED queries,
	// measured from each batch's open-loop arrival.
	Latency *report.LatencySummary
	Result  engine.RunResult
}

// slaProcs is the serving cluster size.
const slaProcs = 6

// SLA runs the serving-mode sweeps on both engines.
func SLA(lab *Lab) ([]SLARow, error) {
	var rows []SLARow
	for _, eng := range []string{"mpi", "pio"} {
		// Rate sweep: identical batch sequence, arrival clock compressed 10×
		// per step. Seed and batch config MUST stay fixed across rates —
		// that is what makes the p99 ordering deterministic.
		for _, rate := range []float64{0.05, 0.5, 5, 50} {
			row, err := runSLASpec(lab, eng, "rate", workload.ArrivalConfig{
				Rate: rate, BatchMean: 2, Seed: 41,
			}, 0)
			if err != nil {
				return nil, fmt.Errorf("sla %s rate=%g: %w", eng, rate, err)
			}
			rows = append(rows, row)
		}
		// Batch-size sweep at the mid rate: per-query admission versus
		// coarse geometric batches.
		for _, bm := range []struct {
			mean int
			dist string
		}{{1, workload.BatchFixed}, {4, workload.BatchGeometric}} {
			row, err := runSLASpec(lab, eng, "batch", workload.ArrivalConfig{
				Rate: 5, BatchMean: bm.mean, BatchDist: bm.dist, Seed: 41,
			}, 0)
			if err != nil {
				return nil, fmt.Errorf("sla %s batchmean=%d: %w", eng, bm.mean, err)
			}
			rows = append(rows, row)
		}
		// Saturation row: a tight admission queue under a bursty overload
		// must shed deterministically.
		row, err := runSLASpec(lab, eng, "shed", workload.ArrivalConfig{
			Rate: 50, Burst: 4, BatchMean: 2, Seed: 41,
		}, 1)
		if err != nil {
			return nil, fmt.Errorf("sla %s shed: %w", eng, err)
		}
		if row.Shed == 0 {
			return nil, fmt.Errorf("sla %s shed: overload row shed nothing (rate 50, cap 1)", eng)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runSLASpec executes one streamed run and verifies it byte-identical to a
// one-shot run over its admitted queries.
func runSLASpec(lab *Lab, eng, sweep string, acfg workload.ArrivalConfig, admitCap int) (SLARow, error) {
	row := SLARow{
		Engine: eng, Procs: slaProcs, Sweep: sweep,
		Rate: acfg.Rate, Burst: acfg.Burst, BatchMean: acfg.BatchMean, AdmitCap: admitCap,
		Label: fmt.Sprintf("%s-%s-r%g", eng, sweep, acfg.Rate),
	}
	queries, err := lab.queries(lab.QuerySizes[1])
	if err != nil {
		return row, err
	}
	batches, err := workload.Arrivals(queries, acfg)
	if err != nil {
		return row, err
	}
	serveJob := &engine.Job{DBBase: "nr", Queries: queries, Options: lab.Options, OutputPath: "results.out"}
	res, stats, out, err := slaServe(lab, eng, serveJob, batches, admitCap)
	if err != nil {
		return row, err
	}
	row.Arrivals, row.Admitted, row.Shed = stats.Arrivals, stats.Admitted, stats.Shed
	row.Latency = report.LatencySummaryOf(res.QueryLatencies)
	row.Result = res

	// Byte-identity gate: a one-shot run over exactly the admitted queries
	// must reproduce the streamed output file.
	shed := make(map[int]bool, len(stats.ShedSeqs))
	for _, s := range stats.ShedSeqs {
		shed[s] = true
	}
	oracleQueries := queries[:0:0]
	for _, b := range batches {
		if !shed[b.Seq] {
			oracleQueries = append(oracleQueries, b.Queries...)
		}
	}
	oracleJob := &engine.Job{DBBase: "nr", Queries: oracleQueries, Options: lab.Options, OutputPath: "results.out"}
	oracleOut, err := slaOneShot(lab, eng, oracleJob)
	if err != nil {
		return row, err
	}
	if !bytes.Equal(out, oracleOut) {
		return row, fmt.Errorf("streamed output differs from one-shot over admitted queries (%d vs %d bytes)", len(out), len(oracleOut))
	}
	if len(res.QueryLatencies) != len(oracleQueries) {
		return row, fmt.Errorf("%d latencies for %d admitted queries", len(res.QueryLatencies), len(oracleQueries))
	}
	return row, nil
}

// slaCluster provisions a fresh formatted cluster for one serving run.
func slaCluster(lab *Lab, eng string) ([]*vfs.Node, error) {
	plat := altix()
	nodes, err := vfs.Cluster(slaProcs, plat.shared, plat.local)
	if err != nil {
		return nil, err
	}
	seqs, err := workload.SynthesizeDB(lab.DB)
	if err != nil {
		return nil, err
	}
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: lab.DB.Kind,
	}); err != nil {
		return nil, err
	}
	if eng == "mpi" {
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", slaProcs-1); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

func slaServe(lab *Lab, eng string, job *engine.Job, batches []workload.Batch, admitCap int) (engine.RunResult, engine.ServeStats, []byte, error) {
	nodes, err := slaCluster(lab, eng)
	if err != nil {
		return engine.RunResult{}, engine.ServeStats{}, nil, err
	}
	cfg := mpi.Config{Cost: lab.Cost}
	var res engine.RunResult
	var stats engine.ServeStats
	switch eng {
	case "mpi":
		res, stats, err = mpiblast.Serve(nodes, slaProcs, cfg, job, mpiblast.Options{}, batches, admitCap)
	case "pio":
		res, stats, err = core.Serve(nodes, slaProcs, cfg, job, core.Options{}, batches, admitCap)
	default:
		err = fmt.Errorf("experiments: unknown engine %q", eng)
	}
	if err != nil {
		return engine.RunResult{}, stats, nil, err
	}
	out, err := nodes[0].Shared.ReadFile(job.OutputPath)
	if err != nil {
		return engine.RunResult{}, stats, nil, err
	}
	return res, stats, out, nil
}

func slaOneShot(lab *Lab, eng string, job *engine.Job) ([]byte, error) {
	nodes, err := slaCluster(lab, eng)
	if err != nil {
		return nil, err
	}
	switch eng {
	case "mpi":
		_, err = mpiblast.Run(nodes, slaProcs, mpi.Config{Cost: lab.Cost}, job, mpiblast.Options{})
	case "pio":
		_, err = core.Run(nodes, slaProcs, mpi.Config{Cost: lab.Cost}, job, core.Options{})
	default:
		err = fmt.Errorf("experiments: unknown engine %q", eng)
	}
	if err != nil {
		return nil, err
	}
	return nodes[0].Shared.ReadFile(job.OutputPath)
}

// PrintSLARows renders the serving-mode sweeps.
func PrintSLARows(w io.Writer, rows []SLARow) {
	fmt.Fprintf(w, "\n== Online serving: latency vs arrival rate (open-loop streams) ==\n")
	fmt.Fprintf(w, "%-18s %-6s %8s %6s %4s | %5s %5s %4s | %8s %8s %8s %8s\n",
		"label", "sweep", "rate", "bmean", "cap",
		"arr", "adm", "shed",
		"p50", "p95", "p99", "max")
	for _, r := range rows {
		ls := r.Latency
		if ls == nil {
			ls = &report.LatencySummary{}
		}
		fmt.Fprintf(w, "%-18s %-6s %8.2f %6d %4d | %5d %5d %4d | %8.3f %8.3f %8.3f %8.3f\n",
			r.Label, r.Sweep, r.Rate, r.BatchMean, r.AdmitCap,
			r.Arrivals, r.Admitted, r.Shed,
			ls.P50, ls.P95, ls.P99, ls.Max)
	}
}
