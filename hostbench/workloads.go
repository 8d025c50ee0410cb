package main

import (
	"fmt"
	"time"

	"parblast"
	"parblast/internal/experiments"
	"parblast/internal/mpi"
)

// A workload is one fixed recipe the benchmark runs. Every input is derived
// from the workload seed; the program only ever sees the generated inputs.
type workload struct {
	name  string
	ranks int

	// BLAST workloads.
	engine   parblast.Engine
	platform parblast.Platform
	dbSeqs   int
	queries  int  // each exactly queryLen residues
	serve    bool // Cluster.Serve over a Poisson arrival stream
	prepare  bool // mpiformatdb pre-partitioning in setup

	// merge-wide only: experiments.MergeScale at this rank count.
	merge bool
}

// Shared input recipe: an nr-like family-structured protein DB and query
// sets sampled from it, as the experiments package builds them. Every
// query has the same length, so the query volume and count, which set the
// kernel and index work, do not vary from seed to seed.
const (
	dbMeanLen     = 300
	dbFamilySize  = 12
	queryLen      = 272
	queryMutation = 0.05
	serveRate     = 20 // batches per virtual second
	serveBatch    = 4  // mean queries per batch (geometric)
	outputPath    = "results.out"
)

var workloads = []workload{
	{name: "pio-wide", ranks: 128, engine: parblast.EnginePioBLAST, platform: parblast.PlatformAltix,
		dbSeqs: 3000, queries: 22},
	{name: "mpi-narrow", ranks: 8, engine: parblast.EngineMPIBlast, platform: parblast.PlatformBladeCluster,
		dbSeqs: 10000, queries: 22, prepare: true},
	{name: "pio-serve", ranks: 16, engine: parblast.EnginePioBLAST, platform: parblast.PlatformAltix,
		dbSeqs: 3000, queries: 44, serve: true},
	{name: "merge-wide", ranks: 1024, merge: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// deriveSeed mixes the workload seed with a stream index (splitmix64), so
// the DB, query and arrival generators get independent seeds.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// setupSpans are the host seconds of each step of one set-up.
type setupSpans struct {
	gen, format, prepare, total float64
}

// env is one searchable cluster: what set-up produces and a run consumes.
type env struct {
	cluster *parblast.Cluster
	search  parblast.Search
	batches []parblast.Batch
	lab     experiments.Lab
	// Set on traced runs only.
	flows   *parblast.TraceCollector
	metrics *parblast.MetricsRegistry
}

// setup builds a fresh cluster with a searchable database from the seed.
// Every timed run gets its own env: runs write the output file and the
// baseline caches fragments on local disks, so a reused cluster would not
// repeat the same virtual run.
func (w workload) setup(seed int64) (*env, setupSpans, error) {
	var sp setupSpans
	start := time.Now()
	if w.merge {
		// merge-wide has no inputs to build: MergeScale synthesizes its
		// per-worker hit lists inside the ranks. Its set-up is the Lab and
		// one bring-up and tear-down of an empty 1024-rank world, the
		// fixed cost every MergeScale cell pays before any merge traffic.
		lab := experiments.DefaultLab()
		if _, err := mpi.Run(w.ranks, lab.Cost, func(*mpi.Rank) error { return nil }); err != nil {
			return nil, sp, err
		}
		sp.total = time.Since(start).Seconds()
		return &env{lab: lab}, sp, nil
	}
	cluster, err := parblast.NewCluster(w.ranks, w.platform)
	if err != nil {
		return nil, sp, err
	}
	t := time.Now()
	seqs, err := parblast.SynthesizeDB(parblast.DBConfig{
		Kind: parblast.Protein, NumSeqs: w.dbSeqs, MeanLen: dbMeanLen,
		Seed: deriveSeed(seed, 1), IDPrefix: "nr", FamilySize: dbFamilySize,
	})
	if err != nil {
		return nil, sp, err
	}
	queries, err := sampleQueries(seqs, w.queries, deriveSeed(seed, 2))
	if err != nil {
		return nil, sp, err
	}
	var batches []parblast.Batch
	if w.serve {
		batches, err = parblast.Arrivals(queries, parblast.ArrivalConfig{
			Rate: serveRate, BatchMean: serveBatch, BatchDist: parblast.BatchSizeGeometric,
			Seed: deriveSeed(seed, 3),
		})
		if err != nil {
			return nil, sp, err
		}
	}
	sp.gen = time.Since(t).Seconds()
	t = time.Now()
	db, err := cluster.FormatDB("nr", seqs, "synthetic nr")
	if err != nil {
		return nil, sp, err
	}
	sp.format = time.Since(t).Seconds()
	if w.prepare {
		t = time.Now()
		if err := cluster.PrepareFragments(db.Base, w.ranks-1); err != nil {
			return nil, sp, err
		}
		sp.prepare = time.Since(t).Seconds()
	}
	sp.total = time.Since(start).Seconds()
	return &env{
		cluster: cluster,
		search:  parblast.Search{DB: db, Queries: queries, Output: outputPath},
		batches: batches,
	}, sp, nil
}

// sampleQueries cuts n queries of exactly queryLen residues: it samples
// pieces of at least queryLen (SampleQueries cuts lengths uniform in
// [MeanLen/2, 3·MeanLen/2)), keeps the first n long enough and trims them.
func sampleQueries(db []*parblast.Sequence, n int, seed int64) ([]*parblast.Sequence, error) {
	pieces, err := parblast.SampleQueries(db, parblast.QueryConfig{
		TargetBytes: 8 * n * queryLen, MeanLen: 2 * queryLen, MutationRate: queryMutation, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*parblast.Sequence, 0, n)
	for _, q := range pieces {
		if len(out) == n {
			break
		}
		if q.Len() >= queryLen {
			q.Residues = q.Residues[:queryLen]
			out = append(out, q)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("sampled %d queries of %d residues, want %d", len(out), queryLen, n)
	}
	return out, nil
}

// outcome is what one timed call produced: the output bytes for the oracle
// compare and the virtual fingerprint for the pinned-clock compare.
type outcome struct {
	output  []byte
	virtual virtualPrint
	result  parblast.Result
	merge   []experiments.MergeScaleRow
}

// call is the workload's one timed call: Cluster.Run, Cluster.Serve or
// experiments.MergeScale. Nothing outside it is timed.
func (w workload) call(e *env) (outcome, error) {
	var out outcome
	switch {
	case w.merge:
		rows, err := experiments.MergeScale(&e.lab, []int{w.ranks})
		if err != nil {
			return out, err
		}
		out.merge = rows
	case w.serve:
		res, _, err := e.cluster.Serve(w.engine, e.search, e.batches, 0)
		if err != nil {
			return out, err
		}
		out.result = res
	default:
		res, err := e.cluster.Run(w.engine, e.search)
		if err != nil {
			return out, err
		}
		out.result = res
	}
	return out, nil
}

// collect reads what the call left behind, outside the timed region.
func (w workload) collect(e *env, out *outcome) error {
	if w.merge {
		out.virtual = mergePrint(out.merge)
		return nil
	}
	data, err := e.cluster.ReadOutput(outputPath)
	if err != nil {
		return fmt.Errorf("read output: %w", err)
	}
	out.output = data
	out.virtual = resultPrint(out.result)
	return nil
}

// oracle runs the sequential engine (engine.RunSequential behind the
// façade) over the env's inputs and returns its report and host seconds.
// For pio-serve every batch is admitted, so the streamed output must equal
// the one-shot report over all queries in arrival order.
func (w workload) oracle(e *env) ([]byte, float64, error) {
	s := e.search
	s.Output = "oracle.out"
	t := time.Now()
	if _, err := e.cluster.Run(parblast.EngineSequential, s); err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	secs := time.Since(t).Seconds()
	data, err := e.cluster.ReadOutput(s.Output)
	if err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	return data, secs, nil
}
