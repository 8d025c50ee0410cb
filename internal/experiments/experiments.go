// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated cluster: the mpiBLAST characterization
// (Figure 1a/1b), the Table 1 phase breakdown, the query→output size map
// (Table 2), the Altix scalability studies (Figure 3a/3b), the NFS-cluster
// study (Figure 4), and the design-choice ablations DESIGN.md calls out,
// plus the extension studies (failure recovery, merge scalability, I/O
// auto-tuning, per-query latency, online serving). Specs is the one
// catalogue of all of them; every parallel engine run goes through
// execute, which brings up a fresh cluster and dispatches to an engine.
//
// The workload is the paper's, scaled to laptop size: a redundant
// ("family"-structured) protein database standing in for GenBank nr, and
// query sets randomly sampled from the database itself. Absolute virtual
// times are therefore a constant factor below the paper's (the database is
// ~4 orders of magnitude smaller); the reproduced claims are the shapes —
// who wins, search-time fractions, where the baseline stops scaling.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"parblast/internal/blast"
	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/report"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// Lab bundles the scaled standard workload and cost model.
type Lab struct {
	// DBConfig generates the nr-stand-in database.
	DB workload.DBConfig
	// QueryMeanLen is the mean sampled query length.
	QueryMeanLen int
	// QuerySizes lists the query-set volumes (bytes) standing in for the
	// paper's 26/77/159/289 KB sets; index 2 is the default "150 KB" set.
	QuerySizes [4]int
	// Cost is the virtual-time model.
	Cost simtime.CostModel
	// Options configures the kernel.
	Options blast.Options
}

// DefaultLab returns the standard scaled workload: ~180 K residues of
// redundant protein data (families of 12 at 15% divergence), query sets of
// 1.5–17 KB sampled from the database.
func DefaultLab() Lab {
	return Lab{
		DB: workload.DBConfig{
			Kind:       seq.Protein,
			NumSeqs:    600,
			MeanLen:    300,
			Seed:       7,
			IDPrefix:   "nr",
			FamilySize: 12,
		},
		QueryMeanLen: 400,
		QuerySizes:   [4]int{1500, 4500, 9000, 17000},
		Cost:         simtime.DefaultCostModel(),
		Options:      blast.DefaultProteinOptions(),
	}
}

// queries samples the query set of the given volume.
func (l *Lab) queries(bytes int) ([]*seq.Sequence, error) {
	db, err := workload.SynthesizeDB(l.DB)
	if err != nil {
		return nil, err
	}
	return workload.SampleQueries(db, workload.QueryConfig{
		TargetBytes:  bytes,
		MeanLen:      l.QueryMeanLen,
		MutationRate: 0.05,
		Seed:         99,
	})
}

// platform describes a storage configuration.
type platform struct {
	name   string
	shared vfs.Profile
	local  *vfs.Profile
}

func altix() platform { return platform{name: "altix-xfs", shared: vfs.XFSLike()} }

func blade() platform {
	l := vfs.LocalDisk()
	return platform{name: "blade-nfs", shared: vfs.NFSLike(), local: &l}
}

// faultSAN is the recovery scenario's platform: a SAN-class shared store
// with enough channels that all workers acquire data in parallel. On the
// serialized blade NFS the copy phase staggers the workers so much that a
// victim's recovery work hides in the stragglers' shadow; in lockstep,
// recovery always lands on the critical path and the wall-time delta is the
// recovery cost itself. Staging goes to IDE-class node-local disks (the
// paper's era), which is exactly the medium mpiBLAST must re-write during
// recovery.
func faultSAN() platform {
	ide := vfs.Profile{Name: "ide", Latency: 8e-3, Bandwidth: 20e6, Channels: 1}
	return platform{
		name:   "san-ide",
		shared: vfs.Profile{Name: "san", Latency: 1e-3, Bandwidth: 60e6, Channels: 32},
		local:  &ide,
	}
}

// runSpec is one engine execution on a fresh cluster.
type runSpec struct {
	lab        *Lab
	plat       platform
	engineName string // "mpi" or "pio"
	procs      int
	fragments  int // 0 = natural
	queries    []*seq.Sequence
	cfg        mpi.Config // Cost is always the lab's
	pio        core.Options
	mpi        mpiblast.Options
	// ioFaults is injected into the shared store after set-up; its FirstOp
	// counts from the run's first shared-store access.
	ioFaults *vfs.FaultPlan
	// batches, when non-nil, serves the queries as this open-loop stream
	// behind an admission queue of admitCap (0 = unbounded).
	batches  []workload.Batch
	admitCap int
}

// runOutcome is what one execution produced.
type runOutcome struct {
	res   engine.RunResult
	stats engine.ServeStats // serving runs only
	out   []byte            // the output file
}

// Row is one measured experiment data point.
type Row struct {
	Label       string
	Engine      string
	Procs       int
	Fragments   int
	QueryBytes  int
	OutputBytes int64
	Result      engine.RunResult
}

// execute brings up a fresh cluster for spec — nodes on its platform, the
// lab's database formatted on the shared store and, for mpi, split into
// physical fragments — and runs its engine there, one-shot or serving.
func execute(spec runSpec) (runOutcome, error) {
	var o runOutcome
	nodes, err := vfs.Cluster(spec.procs, spec.plat.shared, spec.plat.local)
	if err != nil {
		return o, err
	}
	seqs, err := workload.SynthesizeDB(spec.lab.DB)
	if err != nil {
		return o, err
	}
	if _, err := formatdb.Format(nodes[0].Shared, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: spec.lab.DB.Kind,
	}); err != nil {
		return o, err
	}
	if spec.engineName == "mpi" {
		nFrags := spec.fragments
		if nFrags == 0 {
			nFrags = spec.procs - 1
		}
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", nFrags); err != nil {
			return o, err
		}
	}
	if spec.ioFaults != nil {
		// Shift the run-relative plan past the accesses set-up (formatdb,
		// fragment prep) already charged, so every faulted ordinal lands
		// inside the measured run.
		p := *spec.ioFaults
		ops, _, _ := nodes[0].Shared.Stats()
		p.FirstOp += ops
		if err := nodes[0].Shared.InjectFaults(p); err != nil {
			return o, err
		}
	}
	job := &engine.Job{
		DBBase:     "nr",
		Queries:    spec.queries,
		Options:    spec.lab.Options,
		OutputPath: "results.out",
		Fragments:  spec.fragments,
	}
	cfg := spec.cfg
	cfg.Cost = spec.lab.Cost
	serve := spec.batches != nil
	switch {
	case spec.engineName == "mpi" && serve:
		o.res, o.stats, err = mpiblast.Serve(nodes, spec.procs, cfg, job, spec.mpi, spec.batches, spec.admitCap)
	case spec.engineName == "mpi":
		o.res, err = mpiblast.Run(nodes, spec.procs, cfg, job, spec.mpi)
	case spec.engineName == "pio" && serve:
		o.res, o.stats, err = core.Serve(nodes, spec.procs, cfg, job, spec.pio, spec.batches, spec.admitCap)
	case spec.engineName == "pio":
		o.res, err = core.Run(nodes, spec.procs, cfg, job, spec.pio)
	default:
		err = fmt.Errorf("experiments: unknown engine %q", spec.engineName)
	}
	if err != nil {
		return o, err
	}
	o.out, err = nodes[0].Shared.ReadFile(job.OutputPath)
	return o, err
}

// tableRow runs one phase-table data point: spec over the lab's query set
// of queryBytes.
func tableRow(spec runSpec, queryBytes int) (Row, error) {
	queries, err := spec.lab.queries(queryBytes)
	if err != nil {
		return Row{}, err
	}
	spec.queries = queries
	o, err := execute(spec)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Engine:      spec.engineName,
		Procs:       spec.procs,
		Fragments:   spec.fragments,
		QueryBytes:  queryBytes,
		OutputBytes: o.res.OutputBytes,
		Result:      o.res,
	}, nil
}

// --- Figure 1(a): mpiBLAST search vs non-search time by process count ----

// Fig1a reproduces the paper's Figure 1(a): the distribution of mpiBLAST
// execution time between search and "other" at 16/32/64 processes. The
// paper's observation: the search share falls from ~96% to ~71%. The paper
// ran this on GenBank nt, a larger and less hit-dense database than nr —
// modelled here by dropping the family redundancy (fewer hits per query,
// so search dominates more than in the Table 1 workload).
func Fig1a(lab *Lab) ([]Row, error) {
	ntLab := *lab
	ntLab.DB.NumSeqs = 1800
	ntLab.DB.FamilySize = 3
	ntLab.DB.IDPrefix = "nt"
	var rows []Row
	for _, p := range []int{16, 32, 64} {
		row, err := tableRow(runSpec{
			lab: &ntLab, plat: altix(), engineName: "mpi",
			procs: p,
		}, lab.QuerySizes[2])
		if err != nil {
			return nil, fmt.Errorf("fig1a p=%d: %w", p, err)
		}
		row.Label = "fig1a"
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig1b reproduces Figure 1(b): mpiBLAST's sensitivity to the number of
// pre-generated fragments at 32 processes (paper: 31/61/96/167 fragments;
// both search and non-search time rise with fragment count).
func Fig1b(lab *Lab) ([]Row, error) {
	var rows []Row
	for _, f := range []int{31, 61, 96, 167} {
		row, err := tableRow(runSpec{
			lab: lab, plat: altix(), engineName: "mpi",
			procs: 32, fragments: f,
		}, lab.QuerySizes[2])
		if err != nil {
			return nil, fmt.Errorf("fig1b f=%d: %w", f, err)
		}
		row.Label = "fig1b"
		rows = append(rows, row)
	}
	return rows, nil
}

// Table1 reproduces the phase breakdown of both engines at 32 processes
// with the "150 KB" query set and natural partitioning.
func Table1(lab *Lab) ([]Row, error) {
	var rows []Row
	for _, eng := range []string{"mpi", "pio"} {
		row, err := tableRow(runSpec{
			lab: lab, plat: altix(), engineName: eng,
			procs: 32,
		}, lab.QuerySizes[2])
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", eng, err)
		}
		row.Label = "table1"
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2 reproduces the query-size → output-size map by running the
// pipeline for each query set (the paper reports 26K→11M … 289K→153M).
func Table2(lab *Lab) ([]Row, error) {
	var rows []Row
	for _, qb := range lab.QuerySizes {
		row, err := tableRow(runSpec{
			lab: lab, plat: altix(), engineName: "pio",
			procs: 8,
		}, qb)
		if err != nil {
			return nil, fmt.Errorf("table2 q=%d: %w", qb, err)
		}
		row.Label = "table2"
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig3a reproduces Figure 3(a): node scalability of both engines on the
// Altix, 4 → 62 processes.
func Fig3a(lab *Lab) ([]Row, error) {
	var rows []Row
	for _, p := range []int{4, 8, 16, 32, 62} {
		for _, eng := range []string{"mpi", "pio"} {
			row, err := tableRow(runSpec{
				lab: lab, plat: altix(), engineName: eng,
				procs: p,
			}, lab.QuerySizes[2])
			if err != nil {
				return nil, fmt.Errorf("fig3a %s p=%d: %w", eng, p, err)
			}
			row.Label = "fig3a"
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig3b reproduces Figure 3(b): output scalability at 62 processes across
// the four query/output sizes.
func Fig3b(lab *Lab) ([]Row, error) {
	var rows []Row
	for _, qb := range lab.QuerySizes {
		for _, eng := range []string{"mpi", "pio"} {
			row, err := tableRow(runSpec{
				lab: lab, plat: altix(), engineName: eng,
				procs: 62,
			}, qb)
			if err != nil {
				return nil, fmt.Errorf("fig3b %s q=%d: %w", eng, qb, err)
			}
			row.Label = "fig3b"
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig4 reproduces Figure 4: the same process-scalability study on the
// NFS-based blade cluster, 4 → 32 processes.
func Fig4(lab *Lab) ([]Row, error) {
	var rows []Row
	for _, p := range []int{4, 8, 16, 32} {
		for _, eng := range []string{"mpi", "pio"} {
			row, err := tableRow(runSpec{
				lab: lab, plat: blade(), engineName: eng,
				procs: p,
			}, lab.QuerySizes[2])
			if err != nil {
				return nil, fmt.Errorf("fig4 %s p=%d: %w", eng, p, err)
			}
			row.Label = "fig4"
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Ablations measures the design choices DESIGN.md calls out:
//   - collective vs independent output, on both file systems (two-phase
//     I/O matters most where concurrent streams serialize, i.e. NFS);
//   - early score communication, with a binding hit cap (pruning can only
//     help when workers hold more candidates than can qualify globally);
//   - virtual-partition granularity (the §5 load-balancing trade-off).
func Ablations(lab *Lab) ([]Row, error) {
	var rows []Row
	type variant struct {
		name  string
		plat  platform
		frag  int
		pio   core.Options
		opts  func(*blast.Options)
		mpi   bool
		fetch int
	}
	variants := []variant{
		{name: "pio-collective", plat: altix()},
		{name: "pio-independent", plat: altix(), pio: core.Options{IndependentOutput: true}},
		{name: "pio-coll-nfs", plat: blade()},
		{name: "pio-indep-nfs", plat: blade(), pio: core.Options{IndependentOutput: true}},
		{name: "pio-cap10", plat: altix(), opts: func(o *blast.Options) { o.MaxTargetSeqs = 10 }},
		{name: "pio-cap10-prune", plat: altix(), pio: core.Options{EarlyPrune: true},
			opts: func(o *blast.Options) { o.MaxTargetSeqs = 10 }},
		{name: "pio-batch4", plat: altix(), pio: core.Options{QueryBatch: 4}},
		{name: "pio-batch16", plat: altix(), pio: core.Options{QueryBatch: 16}},
		{name: "pio-adaptive64K", plat: altix(), pio: core.Options{MemoryBudgetBytes: 64 << 10}},
		{name: "pio-frag62", plat: altix(), frag: 62},
		{name: "pio-frag124", plat: altix(), frag: 124},
		{name: "pio-frag248", plat: altix(), frag: 248},
		{name: "pio-frag124-dyn", plat: altix(), frag: 124, pio: core.Options{DynamicAssignment: true}},
		{name: "mpi-serial-fetch", plat: altix(), mpi: true, fetch: 1},
		{name: "mpi-fetch-win16", plat: altix(), mpi: true, fetch: 16},
	}
	for _, v := range variants {
		vlab := *lab
		if v.opts != nil {
			v.opts(&vlab.Options)
		}
		eng := "pio"
		if v.mpi {
			eng = "mpi"
		}
		row, err := tableRow(runSpec{
			lab: &vlab, plat: v.plat, engineName: eng,
			procs: 32, fragments: v.frag, pio: v.pio,
			mpi: mpiblast.Options{FetchWindow: v.fetch},
		}, lab.QuerySizes[2])
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		row.Label = v.name
		row.Engine = v.name
		rows = append(rows, row)
	}
	return rows, nil
}

// ReadPath quantifies the input-stage redesign. The blade/NFS pair is the
// paper's strided-read scenario: with many virtual fragments per worker on
// the one-channel store, independent reads pay per-operation latency for
// every extent, while two-phase collective reads aggregate them into a few
// large sieved accesses issued by the aggregator (rank 0 — the otherwise
// idle master — on NFS). The Altix pair measures input/search overlap:
// with spare storage parallelism, prefetching the next partition hides its
// read time behind the current partition's search. The dynamic pair
// pipelines the greedy assignment protocol the same way.
func ReadPath(lab *Lab) ([]Row, error) {
	const procs = 8
	frags := 8 * (procs - 1)
	type variant struct {
		name string
		plat platform
		pio  core.Options
	}
	variants := []variant{
		{name: "pio-indep-read", plat: blade()},
		{name: "pio-coll-read", plat: blade(), pio: core.Options{CollectiveRead: true}},
		{name: "pio-sync-read", plat: altix()},
		{name: "pio-prefetch2", plat: altix(), pio: core.Options{PrefetchDepth: 2}},
		{name: "pio-dyn", plat: altix(), pio: core.Options{DynamicAssignment: true}},
		{name: "pio-dyn-prefetch", plat: altix(), pio: core.Options{DynamicAssignment: true, PrefetchDepth: 1}},
	}
	var rows []Row
	for _, v := range variants {
		row, err := tableRow(runSpec{
			lab: lab, plat: v.plat, engineName: "pio",
			procs: procs, fragments: frags, pio: v.pio,
		}, lab.QuerySizes[2])
		if err != nil {
			return nil, fmt.Errorf("readpath %s: %w", v.name, err)
		}
		row.Label = v.name
		row.Engine = v.name
		rows = append(rows, row)
	}
	return rows, nil
}

// Hetero measures the §5 load-balancing extension on a heterogeneous
// cluster: 25% of the workers run at one-third speed. Static natural
// partitioning stalls on the slow nodes; dynamic greedy assignment of
// fine-grained virtual fragments absorbs the skew.
func Hetero(lab *Lab) ([]Row, error) {
	const procs = 32
	speeds := make([]float64, procs)
	for i := range speeds {
		speeds[i] = 1
	}
	for i := procs - procs/4; i < procs; i++ {
		speeds[i] = 3
	}
	type variant struct {
		name string
		frag int
		pio  core.Options
	}
	variants := []variant{
		{name: "pio-static-hetero"},
		{name: "pio-dynamic-hetero", frag: 2 * (procs - 1), pio: core.Options{DynamicAssignment: true}},
	}
	var rows []Row
	for _, v := range variants {
		row, err := tableRow(runSpec{
			lab: lab, plat: altix(), engineName: "pio",
			procs: procs, fragments: v.frag, pio: v.pio, cfg: mpi.Config{Speeds: speeds},
		}, lab.QuerySizes[2])
		if err != nil {
			return nil, fmt.Errorf("hetero %s: %w", v.name, err)
		}
		row.Label = v.name
		row.Engine = v.name
		rows = append(rows, row)
	}
	return rows, nil
}

// FaultRow is one engine's fault-tolerance measurement: either a worker
// crash (recovery protocol) or a transient-I/O schedule (storage retries).
type FaultRow struct {
	Engine    string
	Procs     int
	CrashAt   float64 // virtual time of the injected worker crash (0 = I/O faults only)
	FaultFree float64 // wall time without faults (recovery protocol armed)
	Faulted   float64 // wall time with the fault schedule
	Overhead  float64 // Faulted − FaultFree: the cost of absorbing the faults
	Identical bool    // faulted-run output byte-identical to the oracle
	// Result is the faulted run's full result; the vfs transient-fault
	// stats (IOFaultedOps/IORetries/IOBackoff) surface through it.
	Result engine.RunResult
}

// faultQueryBytes is the query volume of the recovery scenario: small on
// purpose, so the crash's unavoidable re-search (identical in both engines)
// does not drown the cost the scenario isolates — re-ACQUIRING the lost
// data, where the engines genuinely differ (fragment re-copy vs re-issued
// offsets).
const faultQueryBytes = 500

// Faults measures failure recovery on both engines (§3.1's operational
// argument, extended to run time): a fault-free baseline fixes the crash
// time at mid-search, then worker procs−1 is crashed there and the run must
// still produce byte-identical output. The recovery-cost gap is the point:
// pioBLAST re-issues the dead worker's VIRTUAL partition (offset ranges
// into the global database), while mpiBLAST's replacement worker must
// re-copy the physical fragment files before re-searching. A second pair of
// rows ("mpi+io"/"pio+io") injects transient errors into the shared store
// instead: both engines must absorb the vfs retry/backoff latency with
// byte-identical output, and the retry totals surface in the row.
func Faults(lab *Lab) ([]FaultRow, error) {
	const procs = 8
	// The oracle: the sequential engine's output on the same job.
	oracleFS := vfs.MustNew(vfs.RAMDisk())
	seqs, err := workload.SynthesizeDB(lab.DB)
	if err != nil {
		return nil, err
	}
	if _, err := formatdb.Format(oracleFS, "nr", seqs, formatdb.Config{
		Title: "synthetic nr", Kind: lab.DB.Kind,
	}); err != nil {
		return nil, err
	}
	queries, err := lab.queries(faultQueryBytes)
	if err != nil {
		return nil, err
	}
	oracleJob := &engine.Job{
		DBBase: "nr", Queries: queries, Options: lab.Options, OutputPath: "results.out",
	}
	if err := engine.RunSequential(oracleFS, oracleJob); err != nil {
		return nil, err
	}
	oracle, err := oracleFS.ReadFile(oracleJob.OutputPath)
	if err != nil {
		return nil, err
	}

	// Natural partitioning: one fragment per worker, so the victim loses
	// exactly one partition and the recovery cost is a single clean
	// re-acquire + re-search in both engines. The recovery protocol is
	// armed in pio's baseline too, so the overhead isolates recovery work
	// rather than protocol presence.
	run := func(eng string, faults []mpi.Fault, ioPlan *vfs.FaultPlan) (runOutcome, error) {
		return execute(runSpec{
			lab: lab, plat: faultSAN(), engineName: eng,
			procs: procs, fragments: procs - 1, queries: queries,
			cfg: mpi.Config{Faults: faults}, pio: core.Options{FaultTolerant: true},
			ioFaults: ioPlan,
		})
	}
	var rows []FaultRow
	for _, eng := range []string{"mpi", "pio"} {
		free, err := run(eng, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("faults %s baseline: %w", eng, err)
		}
		if !bytes.Equal(free.out, oracle) {
			return nil, fmt.Errorf("faults %s baseline: output differs from the sequential oracle", eng)
		}
		// Crash the last worker at 75% of the pre-output span (copy + input
		// + search): late enough that its data acquisition is sunk cost —
		// crashing inside the serialized copy/input window would REFUND
		// storage contention to the survivors and mask the recovery cost —
		// but still inside its search work.
		at := 0.75 * (free.res.Wall - free.res.Phase.Output)
		crashed, err := run(eng, []mpi.Fault{
			{Rank: procs - 1, At: at, Kind: mpi.FaultCrash},
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("faults %s crash: %w", eng, err)
		}
		rows = append(rows, FaultRow{
			Engine:    eng,
			Procs:     procs,
			CrashAt:   at,
			FaultFree: free.res.Wall,
			Faulted:   crashed.res.Wall,
			Overhead:  crashed.res.Wall - free.res.Wall,
			Identical: bytes.Equal(crashed.out, oracle),
			Result:    crashed.res,
		})
		// Transient I/O errors on the shared store (retry + exponential
		// backoff in the vfs layer): output must be unchanged, the cost is
		// pure latency, and the retry/backoff totals surface through
		// engine.RunResult's I/O fault stats.
		ioFaulted, err := run(eng, nil, &vfs.FaultPlan{
			FirstOp: 3, Every: 5, Count: 4, Failures: 2, Backoff: 0.002,
		})
		if err != nil {
			return nil, fmt.Errorf("faults %s io: %w", eng, err)
		}
		rows = append(rows, FaultRow{
			Engine:    eng + "+io",
			Procs:     procs,
			FaultFree: free.res.Wall,
			Faulted:   ioFaulted.res.Wall,
			Overhead:  ioFaulted.res.Wall - free.res.Wall,
			Identical: bytes.Equal(ioFaulted.out, oracle),
			Result:    ioFaulted.res,
		})
	}
	return rows, nil
}

// printFaultRows renders the fault-tolerance comparison: worker crashes
// and transient-I/O schedules, with the vfs retry/backoff stats surfaced.
func printFaultRows(w io.Writer, title string, rows []FaultRow) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-8s %5s %10s %10s %10s %10s %10s %9s %9s %9s\n",
		"engine", "procs", "crashAt", "faultfree", "faulted", "overhead", "identical",
		"ioFaults", "ioRetries", "backoff")
	byEngine := make(map[string]FaultRow, len(rows))
	for _, r := range rows {
		byEngine[r.Engine] = r
		fmt.Fprintf(w, "%-8s %5d %10.3f %10.3f %10.3f %10.3f %10v %9d %9d %9.4f\n",
			r.Engine, r.Procs, r.CrashAt, r.FaultFree, r.Faulted, r.Overhead, r.Identical,
			r.Result.IOFaultedOps, r.Result.IORetries, r.Result.IOBackoff)
	}
	mpiRow, mpiOK := byEngine["mpi"]
	pioRow, pioOK := byEngine["pio"]
	if mpiOK && pioOK {
		fmt.Fprintf(w, "recovery-cost gap: mpi re-copies the physical fragment (%.3fs overhead), pio re-issues offsets (%.3fs)\n",
			mpiRow.Overhead, pioRow.Overhead)
	}
}

// faultSuiteRows flattens fault-tolerance rows; the faulted run's summary
// carries the I/O retry/backoff stats.
func faultSuiteRows(rows []FaultRow) []report.SuiteRow {
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, report.SuiteRow{
			Label:   r.Engine,
			Engine:  r.Engine,
			Procs:   r.Procs,
			Summary: report.SummaryOf(r.Result),
		})
	}
	return out
}

// PrepRow is one row of the operational-overhead comparison.
type PrepRow struct {
	Label    string
	Workers  int
	Files    int
	Bytes    int64
	NeedsRun bool // whether a (re-)partitioning run is needed for this worker count
}

// PrepCost quantifies §3.1's operational argument: the baseline needs the
// database pre-partitioned into (at least) as many physical fragments as
// workers — a fresh set of files whenever the worker count outgrows the
// fragment count — while pioBLAST always uses the ONE set of global files.
func PrepCost(lab *Lab) ([]PrepRow, error) {
	seqs, err := workload.SynthesizeDB(lab.DB)
	if err != nil {
		return nil, err
	}
	countFiles := func(fs *vfs.FS, prefix string) (int, int64) {
		files, bytes := 0, int64(0)
		for _, path := range fs.List() {
			if !strings.HasPrefix(path, prefix) {
				continue
			}
			data, err := fs.ReadFile(path)
			if err == nil {
				files++
				bytes += int64(len(data))
			}
		}
		return files, bytes
	}
	var rows []PrepRow
	for _, workers := range []int{15, 31, 61} {
		fs := vfs.MustNew(vfs.RAMDisk())
		db, err := formatdb.Format(fs, "nr", seqs, formatdb.Config{Kind: lab.DB.Kind, Title: "prep"})
		if err != nil {
			return nil, err
		}
		if _, err := db.PhysicalFragment(fs, workers); err != nil {
			return nil, err
		}
		files, bytes := countFiles(fs, "nr.frag")
		rows = append(rows, PrepRow{
			Label: "mpiformatdb", Workers: workers, Files: files, Bytes: bytes, NeedsRun: true,
		})
	}
	// pioBLAST: one global set, any worker count.
	fs := vfs.MustNew(vfs.RAMDisk())
	if _, err := formatdb.Format(fs, "nr", seqs, formatdb.Config{Kind: lab.DB.Kind, Title: "prep"}); err != nil {
		return nil, err
	}
	files, bytes := countFiles(fs, "nr")
	rows = append(rows, PrepRow{Label: "pioBLAST-global", Workers: 0, Files: files, Bytes: bytes})
	return rows, nil
}

// printPrepRows renders the operational-overhead table.
func printPrepRows(w io.Writer, title string, rows []PrepRow) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-18s %8s %7s %10s %s\n", "scheme", "workers", "files", "bytes", "re-run needed when workers grow?")
	for _, r := range rows {
		workers := "any"
		if r.Workers > 0 {
			workers = fmt.Sprintf("%d", r.Workers)
		}
		rerun := "no — one global set"
		if r.NeedsRun {
			rerun = "yes — fragments are per-count"
		}
		fmt.Fprintf(w, "%-18s %8s %7d %10d %s\n", r.Label, workers, r.Files, r.Bytes, rerun)
	}
}

// --- printing ---------------------------------------------------------------

// PrintRows renders rows as the paper-style table: one line per run with
// the phase split, total, and search share.
func PrintRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-16s %5s %5s %8s | %8s %8s %8s %8s %8s | %8s %7s %10s %9s\n",
		"engine", "procs", "frags", "queryB",
		"copy", "input", "search", "output", "other", "total", "srch%", "outBytes", "commKB")
	for _, r := range rows {
		b := r.Result.Phase
		fmt.Fprintf(w, "%-16s %5d %5d %8d | %8.2f %8.2f %8.2f %8.2f %8.2f | %8.2f %6.1f%% %10d %9.0f\n",
			r.Engine, r.Procs, r.Fragments, r.QueryBytes,
			b.Copy, b.Input, b.Search, b.Output, b.Other,
			r.Result.Wall, r.Result.SearchFraction()*100, r.OutputBytes,
			float64(r.Result.CommBytes)/1024)
	}
}

// suiteRows flattens phase-table rows into the artifact's row shape.
func suiteRows(rows []Row) []report.SuiteRow {
	out := make([]report.SuiteRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, report.SuiteRow{
			Label:      r.Label,
			Engine:     r.Engine,
			Procs:      r.Procs,
			Fragments:  r.Fragments,
			QueryBytes: r.QueryBytes,
			Summary:    report.SummaryOf(r.Result),
		})
	}
	return out
}
