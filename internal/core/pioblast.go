// Package core implements pioBLAST — the paper's contribution: parallel
// BLAST with efficient data access.
//
// Compared to the mpiblast baseline it changes exactly the four things the
// paper's §3 describes:
//
//  1. Direct global database access with DYNAMIC (virtual) partitioning:
//     no physical fragments, no copy stage. The master computes
//     (start offset, end offset) ranges from the global index files and
//     distributes them; each worker reads its contiguous ranges of the
//     shared sequence/header/index files in parallel with MPI-IO-style
//     independent reads, straight into memory buffers that the (slightly
//     modified) search kernel consumes.
//  2. Result caching: workers keep every candidate hit — alignment and
//     subject data — in memory as it is discovered, and render the
//     formatted output block of each candidate locally, so the block's
//     bytes and, crucially, its SIZE are known without master involvement.
//  3. Metadata-only merging: workers submit only identifications, scores,
//     and output sizes. The master merges, selects the global winners, and
//     tells each worker WHICH of its hits qualified — the alignment data
//     never makes a round trip through the master.
//  4. Parallel output: because every record's size is known, the master
//     computes each record's byte range in the single shared output file;
//     workers install file views over those ranges and write their cached
//     blocks with collective (two-phase) writes, while the master
//     contributes the header, summary, and statistics trailer through its
//     own view.
//
// One master loop (runMaster) and one worker loop (runWorker) serve both
// entry points. Run is a one-shot job in two phases, like the baseline:
// the queries ride in the job broadcast, every worker acquires its virtual
// fragments and searches them as they arrive, then the ranks run the
// per-batch merge/output protocol. Serve keeps the cluster warm: workers
// acquire and RETAIN their fragments with no queries yet, and each
// admitted stream batch is broadcast, searched against the resident
// fragments, and merged and written by the same code. The §5 future-work
// extensions are implemented behind Options:
//
//   - EarlyPrune: early score communication — a global score threshold is
//     agreed before rendering, so hopeless candidates are dropped at the
//     workers;
//   - DynamicAssignment: virtual fragments are assigned greedily at run
//     time instead of statically, the load-balancing scheme §5 sketches
//     for heterogeneous nodes or skewed searches;
//   - QueryBatch: several queries share one collective write, the
//     batching §5 proposes for large result volumes;
//   - IndependentOutput: the collective write is replaced by per-rank
//     strided writes (ablation for §3.3).
package core

import (
	"errors"
	"fmt"
	"sort"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiio"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
)

// Message tags (distinct from the baseline's, below the mpiio space).
const (
	tagResults    = 11
	tagSelect     = 12
	tagPartReq    = 13
	tagPartAssign = 14
	tagReady      = 15 // worker → master: search phase finished (FT sync)
	tagGo         = 16 // master → worker: proceed to output, or re-search parts
)

// Options selects pioBLAST variants.
type Options struct {
	// EarlyPrune enables §5's "early score communication": before
	// rendering a query's blocks, ranks exchange their top scores,
	// compute the global MaxTargetSeqs-th best score, and skip hits that
	// cannot reach the global output. Output is unchanged; work shrinks.
	EarlyPrune bool
	// IndependentOutput replaces the collective write with per-rank
	// independent strided writes — the ablation showing why §3.3 uses
	// collective I/O.
	IndependentOutput bool
	// DynamicAssignment assigns virtual fragments to workers greedily at
	// run time (workers ask the master for the next unsearched fragment)
	// instead of statically. With Fragments > workers this implements the
	// §5 load-balancing scheme for heterogeneous nodes.
	DynamicAssignment bool
	// QueryBatch groups this many queries into one collective write
	// (0 or 1 = per-query output, the default). §5's query batching.
	QueryBatch int
	// CollectiveRead replaces the workers' independent input reads with
	// collective two-phase reads: per database volume, all ranks (master
	// included, with empty views) read the index-array, header, and
	// sequence ranges as three MPI_File_read_all-style operations, so
	// aggregators turn the strided per-partition requests into a few
	// large sieved sequential reads. Static assignment only: with
	// DynamicAssignment the partition→worker map is not known up front,
	// so the engine falls back to independent reads.
	CollectiveRead bool
	// PrefetchDepth > 0 overlaps input with search: a worker starts the
	// asynchronous reads of up to this many upcoming partitions before
	// searching the current one, paying max(io, compute) instead of
	// their sum. With DynamicAssignment the pipeline is one partition
	// deep (the greedy protocol assigns one at a time).
	PrefetchDepth int
	// MemoryBudgetBytes, when positive, enables ADAPTIVE batching (§5's
	// "adjust to the amount of available memory"): after the search phase
	// the ranks exchange per-query cached-output volumes and every rank
	// derives the same batch boundaries, packing as many queries per
	// collective write as fit the budget. Overrides QueryBatch.
	MemoryBudgetBytes int64
	// FaultTolerant enables the worker-failure recovery protocol: a
	// ready/go rendezvous after the search phase in which the master
	// detects dead workers and re-issues their VIRTUAL partitions (offset
	// ranges — no data movement) to survivors. Enabled automatically when
	// the MPI config schedules faults; can be forced on to measure the
	// protocol's fault-free overhead. Detection polls every 250 ×
	// NetLatency virtual seconds; it is timeout-paced but never wrong: a
	// timeout only triggers a ground-truth liveness check.
	FaultTolerant bool
	// TreeMerge replaces the flat worker→master metadata streams with the
	// hierarchical group merge: workers pre-merge their batch metadata up
	// a k-ary reduction tree (the same top-k selection the master runs, so
	// the result is byte-identical) and the master broadcasts the output
	// layout back down the tree. The flat path remains the ablation
	// baseline.
	TreeMerge bool
	// MergeFanout is the reduction-tree fan-out for TreeMerge
	// (0 = mpi.DefaultTreeFanout).
	MergeFanout int
	// IOHints carries MPI-IO hints applied to every shared-file handle
	// the run opens (database volumes and the output file): aggregator
	// count, collective buffer size, sieve gap, and read strategy. The
	// zero value reproduces the layer's built-in heuristics.
	IOHints mpiio.Hints
	// IOTuner, when non-nil, attaches the shared I/O auto-tuner to every
	// input-file handle: collective reads consult it for the strategy/gap
	// decision and feed their measured virtual cost back. The tuner is an
	// in-process object shared by all ranks (like the file system itself),
	// so it rides alongside the job rather than through the broadcast.
	IOTuner *mpiio.Tuner
}

// wireExtent ships one virtual-fragment extent to a worker: the ordinal
// range plus every byte range needed to read it from the shared files.
type wireExtent struct {
	VolBase     string
	From, To    int
	OIDFrom     int
	HdrOff      int64
	HdrLen      int64
	SeqOff      int64
	SeqLen      int64
	HdrArrayPos int64 // file position in .pin of hdrOffsets[From]
	SeqArrayPos int64 // file position in .pin of seqOffsets[From]
}

// jobMeta is the broadcast that seeds every worker. The shell is cold-path
// gob; the query payload inside is pre-encoded with the compact codec
// (engine.EncodeWireQueries), since it dominates the broadcast bytes.
// Its gob shape and serveBatchMsg's — field names, types and order — are
// frozen: Bcast charges by payload bytes, so any change to them moves every
// rank's virtual clock.
type jobMeta struct {
	Queries  []byte // engine.EncodeWireQueries payload
	Title    string
	Kind     seq.Kind
	NumSeqs  int
	TotalLen int64
	// Parts lists every virtual fragment's extents. With static
	// assignment, part p belongs to worker (p mod workers)+1; with
	// dynamic assignment, parts are handed out greedily at run time.
	Parts       [][]wireExtent
	OutputPath  string
	EarlyPrune  bool
	Independent bool
	Dynamic     bool
	// Collective selects collective two-phase input reads (static
	// assignment only); Prefetch is the input/search overlap depth.
	Collective bool
	Prefetch   int
	QueryBatch int
	MemBudget  int64
	// FT enables the ready/go failure-recovery rendezvous after the search
	// phase; FTTimeout is the master's detection polling interval (250 ×
	// NetLatency).
	FT        bool
	FTTimeout float64
	// Tree selects the hierarchical metadata merge over the k-ary
	// reduction tree with the given fan-out.
	Tree       bool
	TreeFanout int
	// IOHints is applied to every shared-file handle a rank opens.
	IOHints mpiio.Hints
	// Serve marks a streaming run: Queries is empty, and each batch's
	// queries arrive in a per-batch broadcast instead (see serve.go).
	Serve bool
}

// batchMetas is one worker's result metadata for a batch of queries.
type batchMetas struct {
	FirstQuery int
	PerQuery   []engine.QueryMeta
}

func (b *batchMetas) encode() []byte {
	var w engine.Writer
	w.Int(int64(b.FirstQuery))
	w.Uint(uint64(len(b.PerQuery)))
	for _, qm := range b.PerQuery {
		engine.EncodeQueryMeta(&w, qm)
	}
	return w.Bytes()
}

func decodeBatchMetas(data []byte) (batchMetas, error) {
	r := engine.NewReader(data)
	b := batchMetas{FirstQuery: int(r.Int())}
	n := int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		b.PerQuery = append(b.PerQuery, engine.DecodeQueryMeta(r))
	}
	return b, r.Err()
}

// selection tells a worker where its chosen blocks land in the output file.
type selection struct {
	Queries []int
	OIDs    []int
	Offsets []int64
	Lengths []int64
}

func (s *selection) encode() []byte {
	var w engine.Writer
	w.Uint(uint64(len(s.OIDs)))
	for i := range s.OIDs {
		w.Int(int64(s.Queries[i]))
		w.Int(int64(s.OIDs[i]))
		w.Int(s.Offsets[i])
		w.Int(s.Lengths[i])
	}
	return w.Bytes()
}

// encodeGo packs a master→worker go message: done flag plus the part
// indices (if any) the worker must re-search on behalf of dead peers. The
// final (done) message also carries the surviving worker list, so every
// rank derives the identical reduction-tree membership for the merge.
func encodeGo(done bool, extras, alive []int) []byte {
	var w engine.Writer
	if done {
		w.Int(1)
	} else {
		w.Int(0)
	}
	w.Uint(uint64(len(extras)))
	for _, pi := range extras {
		w.Int(int64(pi))
	}
	w.Uint(uint64(len(alive)))
	for _, a := range alive {
		w.Int(int64(a))
	}
	return w.Bytes()
}

func decodeGo(data []byte) (done bool, extras, alive []int, err error) {
	r := engine.NewReader(data)
	done = r.Int() != 0
	n := int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		extras = append(extras, int(r.Int()))
	}
	n = int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		alive = append(alive, int(r.Int()))
	}
	return done, extras, alive, r.Err()
}

// treeMembers is the reduction-tree membership: the master plus every
// live worker. The crash-aware tree protocol requires the membership to
// cover all live ranks, which this is by construction.
func treeMembers(alive []int) []int {
	members := make([]int, 0, len(alive)+1)
	members = append(members, 0)
	return append(members, alive...)
}

// treeCombiner builds the TreeReduce combiner for batch metadata: decode
// both bundles, merge per query with the master's exact selection rule,
// and charge the merge cost on the COMBINING rank's clock — that
// distribution of merge work off the master's critical path is the whole
// point of the hierarchical merge. Decode failures land in *errp (the
// combiner signature has no error path).
func treeCombiner(r *mpi.Rank, maxTargets int, errp *error) func(a, b []byte) []byte {
	return func(a, b []byte) []byte {
		ba, err := decodeBatchMetas(a)
		if err != nil {
			*errp = err
			return nil
		}
		bb, err := decodeBatchMetas(b)
		if err != nil {
			*errp = err
			return nil
		}
		items := engine.MergeCost(ba.PerQuery, bb.PerQuery)
		r.Advance(float64(items) * r.Cost().MergeItemCost)
		merged := engine.CombineQueryMetas(ba.PerQuery, bb.PerQuery, maxTargets)
		kept := 0
		for _, qm := range merged {
			kept += len(qm.Hits)
		}
		engine.RecordMerge(r.Metrics(), r.ID(), items, kept)
		out := batchMetas{FirstQuery: ba.FirstQuery, PerQuery: merged}
		return out.encode()
	}
}

// encodeSelectionBundle packs every worker's output selection into the one
// payload the layout broadcast carries down the tree. ok=false is the
// abort marker: a member crashed mid-merge and the batch cannot complete.
func encodeSelectionBundle(ok bool, sel []selection, workers []int) []byte {
	var w engine.Writer
	if !ok {
		w.Int(0)
		return w.Bytes()
	}
	w.Int(1)
	w.Uint(uint64(len(workers)))
	for _, wk := range workers {
		w.Int(int64(wk))
		w.Blob(sel[wk].encode())
	}
	return w.Bytes()
}

// decodeSelectionBundle extracts this worker's selection from the layout
// broadcast. ok=false reports the master's abort marker.
func decodeSelectionBundle(data []byte, worker int) (sel selection, ok bool, err error) {
	r := engine.NewReader(data)
	if r.Int() == 0 {
		return selection{}, false, r.Err()
	}
	n := int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		wk := int(r.Int())
		blob := r.Blob()
		if wk == worker {
			s, err := decodeSelection(blob)
			return s, true, err
		}
	}
	if r.Err() != nil {
		return selection{}, false, r.Err()
	}
	return selection{}, true, fmt.Errorf("core: layout broadcast misses worker %d", worker)
}

func decodeSelection(data []byte) (selection, error) {
	r := engine.NewReader(data)
	n := int(r.Uint())
	var s selection
	for i := 0; i < n && r.Err() == nil; i++ {
		s.Queries = append(s.Queries, int(r.Int()))
		s.OIDs = append(s.OIDs, int(r.Int()))
		s.Offsets = append(s.Offsets, r.Int())
		s.Lengths = append(s.Lengths, r.Int())
	}
	return s, r.Err()
}

// Run executes a one-shot pioBLAST job on nprocs ranks (rank 0 master,
// workers 1..n-1) under the given MPI configuration. The database is the
// ONE global formatted database — no fragments needed.
func Run(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options) (engine.RunResult, error) {
	s, err := newSession(nodes, nprocs, cfg, job, opts, false)
	if err != nil {
		return engine.RunResult{}, err
	}
	return s.launch(nil)
}

// session is the setup Run and Serve share: the validated inputs and the
// job broadcast that seeds every worker.
type session struct {
	nodes      []*vfs.Node
	nprocs     int
	cfg        mpi.Config
	job        *engine.Job
	tuner      *mpiio.Tuner
	meta       jobMeta
	indexBytes int64 // global index files the master reads to partition
}

// newSession validates a run — serve adds the serving mode's own limits —
// partitions the database and builds the job broadcast.
func newSession(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options, serve bool) (*session, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if nprocs < 2 {
		return nil, fmt.Errorf("core: need ≥2 ranks (1 master + workers), got %d", nprocs)
	}
	if len(nodes) < nprocs {
		return nil, fmt.Errorf("core: %d nodes for %d ranks", len(nodes), nprocs)
	}
	if opts.QueryBatch < 0 {
		return nil, fmt.Errorf("core: negative query batch %d", opts.QueryBatch)
	}
	if serve {
		// A serving cluster keeps its partitions resident, and its batch
		// boundaries come from the arrival stream.
		switch {
		case opts.DynamicAssignment:
			return nil, fmt.Errorf("core: serve mode requires static assignment (partitions must stay resident across batches)")
		case opts.MemoryBudgetBytes > 0:
			return nil, fmt.Errorf("core: serve mode does not support adaptive batching (batch boundaries come from the arrival stream)")
		case opts.QueryBatch > 1:
			return nil, fmt.Errorf("core: serve mode does not support query batching (each arrival batch is one output batch)")
		}
	}
	if err := opts.IOHints.Validate(); err != nil {
		return nil, err
	}
	// Failure recovery only covers workers: the master holds the output
	// layout and the failure detector itself.
	for _, f := range cfg.Faults {
		if f.Rank == 0 && f.Kind == mpi.FaultCrash {
			return nil, fmt.Errorf("core: cannot inject a crash into rank 0 (the master)")
		}
	}
	fanout := opts.MergeFanout
	if fanout == 0 {
		fanout = mpi.DefaultTreeFanout
	}
	if opts.TreeMerge && fanout < 2 {
		return nil, fmt.Errorf("core: merge fan-out %d < 2", opts.MergeFanout)
	}
	shared := nodes[0].Shared
	db, err := formatdb.Open(shared, job.DBBase)
	if err != nil {
		return nil, err
	}
	nParts := job.Fragments
	if nParts == 0 {
		nParts = nprocs - 1 // natural partitioning
	}
	parts, err := db.Partition(nParts)
	if err != nil {
		return nil, err
	}
	wireParts := make([][]wireExtent, len(parts))
	for pi, p := range parts {
		for _, e := range p.Extents {
			v := &db.Volumes[e.Volume]
			wireParts[pi] = append(wireParts[pi], wireExtent{
				VolBase:     v.Base,
				From:        e.From,
				To:          e.To,
				OIDFrom:     e.OIDFrom,
				HdrOff:      e.HdrOff,
				HdrLen:      e.HdrLen,
				SeqOff:      e.SeqOff,
				SeqLen:      e.SeqLen,
				HdrArrayPos: v.HdrOffsetArrayPos(e.From),
				SeqArrayPos: v.SeqOffsetArrayPos(e.From),
			})
		}
	}
	batch := opts.QueryBatch
	if batch < 1 {
		batch = 1
	}
	meta := jobMeta{
		Title:       db.Title,
		Kind:        db.Kind,
		NumSeqs:     db.NumSeqs,
		TotalLen:    db.TotalResidues,
		Parts:       wireParts,
		OutputPath:  job.OutputPath,
		EarlyPrune:  opts.EarlyPrune,
		Independent: opts.IndependentOutput,
		Dynamic:     opts.DynamicAssignment,
		Collective:  opts.CollectiveRead,
		Prefetch:    max(opts.PrefetchDepth, 0),
		QueryBatch:  batch,
		MemBudget:   opts.MemoryBudgetBytes,
		FT:          opts.FaultTolerant || len(cfg.Faults) > 0,
		FTTimeout:   250 * cfg.Cost.NetLatency,
		Tree:        opts.TreeMerge,
		TreeFanout:  fanout,
		IOHints:     opts.IOHints,
		Serve:       serve,
	}
	if !serve {
		meta.Queries = engine.EncodeWireQueries(engine.PackQueries(job.Queries))
	}
	// The master reads the (small) index files to compute the partition.
	var indexBytes int64
	for _, v := range db.Volumes {
		if f, err := shared.Open(formatdb.IndexPath(v.Base)); err == nil {
			indexBytes += f.Size()
		}
	}
	if cfg.Comm == nil {
		cfg.Comm = mpi.NewCommStats(nprocs)
	}
	return &session{nodes: nodes, nprocs: nprocs, cfg: cfg, job: job, tuner: opts.IOTuner, meta: meta, indexBytes: indexBytes}, nil
}

// launch runs the master and the workers and summarizes the run; st is
// the arrival stream of a serving run, nil for a one-shot run.
func (s *session) launch(st *stream) (engine.RunResult, error) {
	// Per-query latency sink, appended by the master goroutine only and
	// read after mpi.RunConfig returns (the run's WaitGroup is the barrier).
	var qlat []float64
	clocks, err := mpi.RunConfig(s.nprocs, s.cfg, func(r *mpi.Rank) error {
		if r.ID() == 0 {
			return s.runMaster(r, st, &qlat)
		}
		return runWorker(r, s.nodes[r.ID()], s.job.Options, s.tuner)
	})
	if err != nil {
		return engine.RunResult{}, err
	}
	var outBytes int64
	if f, err := s.nodes[0].Shared.Open(s.job.OutputPath); err == nil {
		outBytes = f.Size()
	}
	res := engine.Summarize(clocks, outBytes)
	res.QueryLatencies = qlat
	res.CommBytes, res.ShuffleBytes, res.CollectiveBytes, res.CommMessages = s.cfg.Comm.Totals()
	res.AddIOFaults(s.nodes)
	return res, nil
}

// adaptiveBounds packs queries into batches whose summed cached-output
// volume stays within the budget (every batch holds at least one query).
// All ranks compute this from identical global volumes, so the boundaries
// agree everywhere.
func adaptiveBounds(volumes []int64, budget int64) []int {
	if len(volumes) == 0 {
		return []int{0}
	}
	bounds := []int{0}
	var acc int64
	for q := range volumes {
		if q > bounds[len(bounds)-1] && acc+volumes[q] > budget {
			bounds = append(bounds, q)
			acc = 0
		}
		acc += volumes[q]
	}
	return append(bounds, len(volumes))
}

// exchangeVolumes AllGathers each rank's per-query cached-output volume
// estimates and returns the global per-query totals — the consensus input
// to adaptive batching. The master participates with zeros.
func exchangeVolumes(r *mpi.Rank, local []int64) []int64 {
	var w engine.Writer
	for _, v := range local {
		w.Int(v)
	}
	all := r.AllGather(w.Bytes())
	total := make([]int64, len(local))
	for _, data := range all {
		if len(data) == 0 {
			continue // crashed rank: contributes nothing
		}
		rd := engine.NewReader(data)
		for q := range total {
			total[q] += rd.Int()
		}
	}
	return total
}

// outputBounds is the fixed output-batch boundary list of an n-query set:
// QueryBatch queries per collective write, or the whole set in a serving
// run, where each arrival batch is one output batch.
func outputBounds(meta jobMeta, n int) []int {
	if meta.Serve {
		return fixedBounds(n, n)
	}
	return fixedBounds(n, meta.QueryBatch)
}

// runMaster is the master's one loop for both modes: partition assignment,
// then per query set the ready/go rendezvous (fault tolerance) and the
// batched merge/output. A one-shot run has one query set, the job's; a
// serving run has none at warm-up and then one per admitted stream batch.
func (s *session) runMaster(r *mpi.Rank, st *stream, qlat *[]float64) error {
	node, meta := s.nodes[0], s.meta
	r.SetPhase(simtime.PhaseOther)
	r.Advance(r.Cost().SetupCost)
	r.SetPhase(simtime.PhaseInput)
	r.IO(node.Shared, s.indexBytes) // read the global index files for partitioning
	r.SetPhase(simtime.PhaseOther)
	r.Bcast(0, engine.EncodeGob(meta))
	// Admission of a one-shot job: every query is "in the system" once the
	// job metadata broadcast completes — the latency baseline for all.
	admit := r.Clock().Now()

	workers := r.Size() - 1
	alive := make([]int, 0, workers)
	for w := 1; w <= workers; w++ {
		alive = append(alive, w)
	}
	// partsOf records which virtual partitions each worker is responsible
	// for; pending collects partitions reclaimed from crashed workers.
	partsOf := make([][]int, workers+1)
	var pending []int
	if meta.Dynamic {
		// Greedy run-time assignment of virtual fragments (§5): serve
		// part requests until every worker has been told "done".
		r.SetPhase(simtime.PhaseIdle)
		next := 0
		if meta.FT {
			served := make(map[int]bool)
			for {
				allServed := true
				for _, w := range alive {
					if !served[w] {
						allServed = false
						break
					}
				}
				if allServed {
					break
				}
				_, from, _, err := r.RecvTimeout(mpi.AnySource, tagPartReq, meta.FTTimeout)
				if err != nil {
					// Timeout (AnySource never reports a specific failure):
					// check ground truth for crashed workers and reclaim
					// their assignments.
					alive, pending = reapDead(r, alive, partsOf, pending)
					continue
				}
				if r.Failed(from) {
					continue // the requester crashed after sending
				}
				if next < len(meta.Parts) {
					partsOf[from] = append(partsOf[from], next)
					r.Send(from, tagPartAssign, engine.EncodeInt(next))
					next++
				} else {
					r.Send(from, tagPartAssign, engine.EncodeInt(-1))
					served[from] = true
				}
			}
		} else {
			done := 0
			for done < workers {
				_, from, _ := r.Recv(mpi.AnySource, tagPartReq)
				if next < len(meta.Parts) {
					r.Send(from, tagPartAssign, engine.EncodeInt(next))
					next++
				} else {
					r.Send(from, tagPartAssign, engine.EncodeInt(-1))
					done++
				}
			}
		}
	} else {
		for pi := range meta.Parts {
			partsOf[pi%workers+1] = append(partsOf[pi%workers+1], pi)
		}
		if meta.Collective {
			// Participate (with empty views) in the workers' collective
			// input reads — three per volume. The master usually serves
			// an aggregator domain here, turning otherwise idle time into
			// useful sequential I/O.
			r.SetPhase(simtime.PhaseInput)
			if _, err := readPartsCollective(r, newFileCache(r, node.Shared, meta.IOHints, s.tuner), meta, nil); err != nil {
				return err
			}
			r.SetPhase(simtime.PhaseIdle)
		}
	}

	searcher, err := blast.NewSearcher(s.job.Options)
	if err != nil {
		return err
	}
	out := mpiio.OpenOrCreate(r, node.Shared, s.job.OutputPath)
	if err := out.SetHints(meta.IOHints); err != nil {
		return err
	}
	mb := &masterBatch{
		r: r, meta: meta, renderOpts: s.job.Options, searcher: searcher,
		maxTargets: searcher.Options().MaxTargetSeqs,
		dbInfo:     blast.DBInfo{Title: meta.Title, NumSeqs: meta.NumSeqs, TotalLen: meta.TotalLen},
		out:        out,
	}
	recvWorker := recvWorkerFn(r, meta)

	queries, arrival, firstID := s.job.Queries, admit, 0
	if st != nil {
		queries = nil
	}
	for {
		if meta.FT {
			// Ready/go rendezvous: detect crashes since the last one and
			// re-issue the dead workers' partitions before the merge.
			if alive, err = syncWorkers(r, meta, alive, partsOf, pending); err != nil {
				return err
			}
			pending = nil
		}
		if err := mb.mergeSet(queries, arrival, firstID, alive, recvWorker, qlat); err != nil {
			return err
		}
		if st == nil || !st.next(r) {
			break
		}
		queries, arrival, firstID = st.cur.Queries, st.arrival, st.cur.Seq
	}
	r.SetPhase(simtime.PhaseOther)
	r.Barrier()
	return nil
}

// recvWorkerFn builds the master's receive primitive: under fault
// tolerance a crash during the output phase is unrecoverable (the dead
// worker's cached blocks are gone and the layout is already partly
// written), so it is reported as a clean error instead of a deadlock.
func recvWorkerFn(r *mpi.Rank, meta jobMeta) func(w, tag int) ([]byte, error) {
	return func(w, tag int) ([]byte, error) {
		if !meta.FT {
			data, _, _ := r.Recv(w, tag)
			return data, nil
		}
		for {
			data, _, _, err := r.RecvTimeout(w, tag, meta.FTTimeout)
			if err == nil {
				return data, nil
			}
			if errors.Is(err, mpi.ErrRankFailed) {
				return nil, fmt.Errorf("core: worker %d crashed during the output phase; recovery only covers the search phase: %w", w, err)
			}
		}
	}
}

// masterBatch carries the master's cross-batch merge state: the open
// output file and the running layout offset persist across batches (and,
// in the serving mode, across admitted stream batches).
type masterBatch struct {
	r          *mpi.Rank
	meta       jobMeta
	renderOpts blast.Options
	searcher   *blast.Searcher
	maxTargets int
	dbInfo     blast.DBInfo
	out        *mpiio.File
	off        int64
}

// mergeSet merges and writes one query set batch by batch. Batch i carries
// trace-batch id firstID+i: one-shot batches count up from 0, and a stream
// batch is one output batch carrying its arrival Seq. Each query's latency
// is measured from arrival, the set's admission clock.
func (mb *masterBatch) mergeSet(queries []*seq.Sequence, arrival float64, firstID int, alive []int, recvWorker func(w, tag int) ([]byte, error), qlat *[]float64) error {
	r := mb.r
	bounds := outputBounds(mb.meta, len(queries))
	if mb.meta.MemBudget > 0 {
		r.SetPhase(simtime.PhaseIdle)
		volumes := exchangeVolumes(r, make([]int64, len(queries)))
		bounds = adaptiveBounds(volumes, mb.meta.MemBudget)
	}
	for i := 0; i+1 < len(bounds); i++ {
		// The batch id is the trace context: every envelope the master
		// sends for this batch carries it, and receivers propagate it.
		r.SetTraceBatch(firstID + i)
		err := mb.mergeBatch(queries, bounds[i], bounds[i+1], alive, recvWorker, func(q int) {
			// The query's results are now globally merged and laid out:
			// its end-to-end latency is settled on the master's clock.
			lat := r.Clock().Now() - arrival
			*qlat = append(*qlat, lat)
			engine.RecordQueryLatency(r.Metrics(), r.ID(), lat)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeBatch runs the master side of one batch over queries[q0:q1]:
// early-prune participation, metadata collection (flat per-worker streams
// or one hierarchical tree reduction), the global merge and output-file
// layout (§3.3, Figure 2), the selection send-back, and the collective
// write. onQueryDone fires as each query's merge completes, on the
// master's clock — the caller owns the latency baseline. Shared verbatim
// by the one-shot run and the serving loop, which is what makes streamed
// output byte-identical to the one-shot oracle.
func (mb *masterBatch) mergeBatch(queries []*seq.Sequence, q0, q1 int, alive []int, recvWorker func(w, tag int) ([]byte, error), onQueryDone func(q int)) error {
	r, meta := mb.r, mb.meta
	workers := r.Size() - 1
	// While the workers finish this batch, the master is parked.
	r.SetPhase(simtime.PhaseIdle)
	if meta.EarlyPrune {
		for q := q0; q < q1; q++ {
			exchangeThreshold(r, nil, mb.maxTargets) // participate, contribute nothing
		}
	}
	// Collect the per-query metadata: either the flat per-worker
	// streams (baseline) or one hierarchical tree reduction whose
	// result is already the globally merged selection.
	var treeMerged []engine.QueryMeta
	perWorker := make([]batchMetas, workers+1)
	if meta.Tree {
		members := treeMembers(alive)
		// The master contributes an identity bundle covering every
		// query, so the fold always yields the full batch range.
		id := batchMetas{FirstQuery: q0}
		for q := q0; q < q1; q++ {
			id.PerQuery = append(id.PerQuery, engine.QueryMeta{QueryIndex: q})
		}
		var combErr error
		combined, contributors, err := r.TreeReduce(0, meta.TreeFanout, members, id.encode(), treeCombiner(r, mb.maxTargets, &combErr))
		if err != nil {
			return err
		}
		if combErr != nil {
			return combErr
		}
		r.SetPhase(simtime.PhaseOutput)
		if len(contributors) != len(members) {
			// A member crashed mid-merge: its cached blocks are gone
			// and its hits are unrecoverable. Tell the survivors to
			// stand down (the abort marker), then fail cleanly —
			// matching the flat path's output-phase contract.
			r.TreeBcast(0, meta.TreeFanout, members, encodeSelectionBundle(false, nil, nil))
			return fmt.Errorf("core: worker crashed during the hierarchical merge; recovery only covers the search phase")
		}
		bm, err := decodeBatchMetas(combined)
		if err != nil {
			return err
		}
		if len(bm.PerQuery) != q1-q0 {
			return fmt.Errorf("core: tree merge returned %d queries, want %d", len(bm.PerQuery), q1-q0)
		}
		treeMerged = bm.PerQuery
	} else {
		for _, w := range alive {
			data, err := recvWorker(w, tagResults)
			if err != nil {
				return err
			}
			bm, err := decodeBatchMetas(data)
			if err != nil {
				return err
			}
			perWorker[w] = bm
		}
	}

	// Merge metadata and lay out the output file (§3.3, Figure 2).
	r.SetPhase(simtime.PhaseOutput)
	sel := make([]selection, workers+1)
	var masterData []byte
	var view mpiio.View
	for q := q0; q < q1; q++ {
		var merged []engine.HitMeta
		var work blast.WorkCounters
		if meta.Tree {
			// The reduction already applied the global selection rule;
			// the master only lays out the file.
			merged = treeMerged[q-q0].Hits
			work = treeMerged[q-q0].Work
		} else {
			var all []engine.HitMeta
			for _, w := range alive {
				qm := perWorker[w].PerQuery[q-q0]
				all = append(all, qm.Hits...)
				work.Add(qm.Work)
			}
			r.Advance(float64(len(all)) * r.Cost().MergeItemCost)
			merged = engine.MergeHits(all, mb.maxTargets)
			engine.RecordMerge(r.Metrics(), r.ID(), len(all), len(merged))
		}

		query := queries[q]
		header := blast.RenderHeader(mb.renderOpts.OutFormat, meta.Kind, query, mb.dbInfo)
		summary := blast.RenderSummary(mb.renderOpts.OutFormat, engine.SummaryResults(merged))
		space := engine.SearchSpaceFor(mb.searcher, query.Len(), meta.TotalLen, meta.NumSeqs)
		footer := blast.RenderFooter(mb.renderOpts.OutFormat, mb.searcher.GappedParams(), space, work)
		r.FormatCost(int64(len(header)+len(summary)+len(footer)) / 8)

		headOff := mb.off
		cur := mb.off + int64(len(header)+len(summary))
		for _, h := range merged {
			s := &sel[h.Worker]
			s.Queries = append(s.Queries, q)
			s.OIDs = append(s.OIDs, h.OID)
			s.Offsets = append(s.Offsets, cur)
			s.Lengths = append(s.Lengths, h.BlockSize)
			cur += h.BlockSize
		}
		masterData = append(masterData, header...)
		masterData = append(masterData, summary...)
		masterData = append(masterData, footer...)
		view.Segments = append(view.Segments,
			mpiio.Segment{Offset: headOff, Length: int64(len(header) + len(summary))},
			mpiio.Segment{Offset: cur, Length: int64(len(footer))})
		mb.off = cur + int64(len(footer))
		onQueryDone(q)
	}
	if meta.Tree {
		// Layout broadcast down the tree (§3.3): one bundle holding
		// every worker's selection instead of N point-to-point sends.
		r.TreeBcast(0, meta.TreeFanout, treeMembers(alive), encodeSelectionBundle(true, sel, alive))
	} else {
		for _, w := range alive {
			r.Send(w, tagSelect, sel[w].encode())
		}
	}
	if err := mb.out.SetView(view); err != nil {
		return err
	}
	if meta.Independent {
		if err := mb.out.WriteIndependent(masterData); err != nil {
			return err
		}
		r.Barrier()
		return nil
	}
	return mb.out.WriteCollective(masterData)
}

// reapDead removes crashed workers from the alive list, reclaiming their
// virtual partitions into pending. Safe to call repeatedly: a reclaimed
// worker's partsOf entry is cleared.
func reapDead(r *mpi.Rank, alive []int, partsOf [][]int, pending []int) (live, newPending []int) {
	live = alive[:0]
	for _, w := range alive {
		if r.Failed(w) {
			pending = append(pending, partsOf[w]...)
			partsOf[w] = nil
			continue
		}
		live = append(live, w)
	}
	return live, pending
}

// syncWorkers runs the master side of the post-search ready/go rendezvous:
// collect a ready message from every live worker (crashes detected by
// timeout plus ground-truth liveness check), re-issue dead workers' virtual
// partitions to survivors — offsets only, no data movement — and repeat
// until a round completes with nothing left to recover. Returns the final
// alive set.
func syncWorkers(r *mpi.Rank, meta jobMeta, alive []int, partsOf [][]int, pending []int) ([]int, error) {
	r.SetPhase(simtime.PhaseIdle)
	for {
		var survivors []int
		for _, w := range alive {
			for {
				_, _, _, err := r.RecvTimeout(w, tagReady, meta.FTTimeout)
				if err == nil {
					survivors = append(survivors, w)
					break
				}
				if errors.Is(err, mpi.ErrRankFailed) {
					pending = append(pending, partsOf[w]...)
					partsOf[w] = nil
					break
				}
				// Timed out: the worker is alive but still searching.
			}
		}
		alive = survivors
		if len(alive) == 0 {
			return nil, fmt.Errorf("core: all workers failed; cannot recover")
		}
		if len(pending) == 0 {
			for _, w := range alive {
				r.Send(w, tagGo, encodeGo(true, nil, alive))
			}
			return alive, nil
		}
		// Re-issue the reclaimed partitions round-robin. Recovery is cheap
		// by construction (§3.1): a partition is a set of offset ranges into
		// the shared global database, so survivors just read and re-search
		// those ranges — no fragment files to re-copy.
		r.Metrics().Counter("engine.parts_reissued", r.ID()).Add(int64(len(pending)))
		extra := make(map[int][]int)
		for i, pi := range pending {
			w := alive[i%len(alive)]
			extra[w] = append(extra[w], pi)
			partsOf[w] = append(partsOf[w], pi)
		}
		pending = nil
		for _, w := range alive {
			r.Send(w, tagGo, encodeGo(false, extra[w], nil))
		}
	}
}

// worker is one worker rank's state for the whole run: the fragments it
// has acquired — kept resident, so a serving worker searches every stream
// batch against them — the current query set, and that set's per-query
// hits and work counters.
type worker struct {
	r        *mpi.Rank
	meta     jobMeta
	opts     blast.Options
	searcher *blast.Searcher
	ctx      *blast.Context
	files    *fileCache
	resident []*blast.Fragment
	frag     blast.Fragment // every resident subject, for block rendering
	byOID    map[int]int    // OID -> index into frag.Subjects
	queries  []*seq.Sequence
	hits     [][]*blast.SubjectResult
	work     []blast.WorkCounters
}

// runWorker is the worker's one loop for both modes: acquire the virtual
// partitions, then per query set the ready/go rendezvous (fault
// tolerance) and the batched merge/output. A one-shot worker's query set
// rides in the job broadcast and is searched as partitions arrive; a
// serving worker acquires with no queries and then searches each stream
// batch against its resident partitions.
func runWorker(r *mpi.Rank, node *vfs.Node, opts blast.Options, tuner *mpiio.Tuner) error {
	r.SetPhase(simtime.PhaseOther)
	r.Advance(r.Cost().SetupCost)
	var meta jobMeta
	if err := engine.DecodeGob(r.Bcast(0, nil), &meta); err != nil {
		return err
	}
	searcher, err := blast.NewSearcher(opts)
	if err != nil {
		return err
	}
	w := &worker{
		r: r, meta: meta, opts: opts, searcher: searcher, ctx: searcher.NewContext(),
		files: newFileCache(r, node.Shared, meta.IOHints, tuner), byOID: make(map[int]int),
	}
	if !meta.Serve {
		queries, err := unpackQueries(meta.Queries)
		if err != nil {
			return err
		}
		w.setQueries(queries)
	}
	if err := w.acquire(); err != nil {
		return err
	}

	// aliveWorkers is this worker's view of the surviving worker set —
	// the tree-merge membership. Without fault tolerance nobody can die;
	// with it, the rendezvous's final go carries the master's survivor list.
	workers := r.Size() - 1
	aliveWorkers := make([]int, 0, workers)
	for id := 1; id <= workers; id++ {
		aliveWorkers = append(aliveWorkers, id)
	}
	var outFile *mpiio.File
	firstID := 0
	for {
		if meta.FT {
			if aliveWorkers, err = w.rendezvous(); err != nil {
				return err
			}
		}
		if outFile == nil {
			// Opened only once the first rendezvous is through, so a worker
			// that dies before it never counts an open.
			outFile = mpiio.OpenOrCreate(r, node.Shared, meta.OutputPath)
			if err := outFile.SetHints(meta.IOHints); err != nil {
				return err
			}
		}
		if !meta.Serve {
			// A one-shot worker has searched for the last time: free the
			// search scratch (the last query's word index) before merging.
			w.ctx = nil
		}
		if err := w.output(outFile, firstID, aliveWorkers); err != nil {
			return err
		}
		if !meta.Serve {
			break
		}
		r.SetPhase(simtime.PhaseIdle)
		var msg serveBatchMsg
		if err := engine.DecodeGob(r.Bcast(0, nil), &msg); err != nil {
			return err
		}
		if msg.Seq < 0 {
			break // end of stream
		}
		r.SetTraceBatch(msg.Seq)
		queries, err := unpackQueries(msg.Queries)
		if err != nil {
			return err
		}
		w.setQueries(queries)
		firstID = msg.Seq
		// Search the resident partitions — no reads: the warm-cluster
		// payoff.
		for _, frag := range w.resident {
			if err := w.search(frag); err != nil {
				return err
			}
		}
	}
	r.SetPhase(simtime.PhaseOther)
	r.Barrier()
	return nil
}

func unpackQueries(data []byte) ([]*seq.Sequence, error) {
	wq, err := engine.DecodeWireQueries(data)
	if err != nil {
		return nil, err
	}
	return wq.Unpack(), nil
}

// setQueries makes queries the current set, with empty results.
func (w *worker) setQueries(queries []*seq.Sequence) {
	w.queries = queries
	w.hits = make([][]*blast.SubjectResult, len(queries))
	w.work = make([]blast.WorkCounters, len(queries))
}

// retain keeps a fragment resident and indexes its subjects for block
// rendering.
func (w *worker) retain(frag *blast.Fragment) {
	w.resident = append(w.resident, frag)
	base := len(w.frag.Subjects)
	w.frag.Subjects = append(w.frag.Subjects, frag.Subjects...)
	for i := base; i < len(w.frag.Subjects); i++ {
		w.byOID[w.frag.Subjects[i].OID] = i
	}
}

// search runs the current query set against one fragment. The loop nest
// is fragment-major whichever mode acquired the fragment, so per-(query,
// fragment) work counters — and the report footers — agree across modes.
func (w *worker) search(frag *blast.Fragment) error {
	if len(w.queries) == 0 {
		return nil // serving warm-up: acquire only
	}
	r := w.r
	r.SetPhase(simtime.PhaseSearch)
	for qi, q := range w.queries {
		if err := w.ctx.SetQuery(q); err != nil {
			return err
		}
		space := engine.SearchSpaceFor(w.searcher, q.Len(), w.meta.TotalLen, w.meta.NumSeqs)
		res, err := w.ctx.SearchFragment(frag, space)
		if err != nil {
			return err
		}
		r.Compute(res.Work.Units())
		engine.RecordWork(r.Metrics(), r.ID(), res.Work)
		w.hits[qi] = append(w.hits[qi], res.Hits...)
		w.work[qi].Add(res.Work)
		r.Yield()
	}
	return nil
}

// acquired retains a freshly read fragment and searches it.
func (w *worker) acquired(frag *blast.Fragment) error {
	w.retain(frag)
	return w.search(frag)
}

// read reads one partition with independent reads.
func (w *worker) read(pi int) (*blast.Fragment, error) {
	w.r.Yield() // keep virtual-time order across ranks' storage accesses
	w.r.SetPhase(simtime.PhaseInput)
	return readPart(w.files, w.meta.Parts[pi])
}

// acquire reads this worker's virtual partitions — statically owned
// (independent, prefetched or collective reads) or greedily assigned —
// retaining each and searching it against the current query set.
func (w *worker) acquire() error {
	r, meta := w.r, w.meta
	workers := r.Size() - 1
	var mine []int
	for pi := range meta.Parts {
		if pi%workers == r.ID()-1 {
			mine = append(mine, pi)
		}
	}
	switch {
	case meta.Dynamic && meta.Prefetch > 0:
		// Pipeline the greedy protocol one partition deep: the next
		// assignment is requested — and its reads started — before the
		// current partition is searched, so both the master round trip
		// and the input I/O hide behind the search.
		reqPart := func() {
			r.SetPhase(simtime.PhaseIdle)
			r.Send(0, tagPartReq, nil)
		}
		recvAssign := func() (int, error) {
			r.SetPhase(simtime.PhaseIdle)
			data, _, _ := r.Recv(0, tagPartAssign)
			return engine.DecodeInt(data)
		}
		startFetch := func(pi int) (*partFetch, error) {
			reqPart()
			r.Yield()
			r.SetPhase(simtime.PhaseInput)
			return startPartFetch(w.files, meta.Parts[pi])
		}
		reqPart()
		cur, err := recvAssign()
		if err != nil {
			return err
		}
		var curFetch *partFetch
		if cur >= 0 {
			if curFetch, err = startFetch(cur); err != nil {
				return err
			}
		}
		for cur >= 0 {
			nxt, err := recvAssign()
			if err != nil {
				return err
			}
			var nxtFetch *partFetch
			if nxt >= 0 {
				if nxtFetch, err = startFetch(nxt); err != nil {
					return err
				}
			}
			r.SetPhase(simtime.PhaseInput)
			frag, err := curFetch.finish()
			if err != nil {
				return err
			}
			if err := w.acquired(frag); err != nil {
				return err
			}
			cur, curFetch = nxt, nxtFetch
		}
	case meta.Dynamic:
		for {
			// The request/assign rendezvous is queueing, not search: the
			// master may be busy serving other workers.
			r.SetPhase(simtime.PhaseIdle)
			r.Send(0, tagPartReq, nil)
			data, _, _ := r.Recv(0, tagPartAssign)
			part, err := engine.DecodeInt(data)
			if err != nil {
				return err
			}
			if part < 0 {
				break
			}
			frag, err := w.read(part)
			if err != nil {
				return err
			}
			if err := w.acquired(frag); err != nil {
				return err
			}
		}
	case meta.Collective:
		r.Yield()
		r.SetPhase(simtime.PhaseInput)
		frags, err := readPartsCollective(r, w.files, meta, mine)
		if err != nil {
			return err
		}
		for _, pi := range mine {
			if err := w.acquired(frags[pi]); err != nil {
				return err
			}
		}
	default:
		return w.readStatic(mine)
	}
	return nil
}

// readStatic acquires a known list of partitions with independent reads,
// keeping the asynchronous reads of up to meta.Prefetch upcoming
// partitions in flight while the current one is searched.
func (w *worker) readStatic(parts []int) error {
	if w.meta.Prefetch == 0 {
		for _, pi := range parts {
			frag, err := w.read(pi)
			if err != nil {
				return err
			}
			if err := w.acquired(frag); err != nil {
				return err
			}
		}
		return nil
	}
	fetches := make([]*partFetch, len(parts))
	next := 0
	for cur := range parts {
		w.r.Yield()
		w.r.SetPhase(simtime.PhaseInput)
		for next <= cur+w.meta.Prefetch && next < len(parts) {
			pf, err := startPartFetch(w.files, w.meta.Parts[parts[next]])
			if err != nil {
				return err
			}
			fetches[next] = pf
			next++
		}
		frag, err := fetches[cur].finish()
		fetches[cur] = nil
		if err != nil {
			return err
		}
		if err := w.acquired(frag); err != nil {
			return err
		}
	}
	return nil
}

// rendezvous is the worker side of the ready/go exchange: report the
// current query set searched, then absorb any partitions reclaimed from
// crashed peers and search them too, until the final go, which carries the
// survivor list. Re-issued partitions are re-read independently — the
// crashed peers a collective would need are gone. A one-shot worker reads
// and searches them one at a time, prefetched when enabled; a serving
// worker reads them all, then searches them for the current batch.
func (w *worker) rendezvous() ([]int, error) {
	r := w.r
	for {
		r.SetPhase(simtime.PhaseIdle)
		r.Send(0, tagReady, nil)
		data, _, _ := r.Recv(0, tagGo)
		done, extras, alive, err := decodeGo(data)
		if err != nil {
			return nil, err
		}
		if w.meta.Serve {
			from := len(w.resident)
			for _, pi := range extras {
				frag, err := w.read(pi)
				if err != nil {
					return nil, err
				}
				w.retain(frag)
			}
			for _, frag := range w.resident[from:] {
				if err := w.search(frag); err != nil {
					return nil, err
				}
			}
		} else if err := w.readStatic(extras); err != nil {
			return nil, err
		}
		if done {
			return alive, nil
		}
	}
}

// output merges and writes the current query set batch by batch; batch i
// carries trace-batch id firstID+i, as on the master.
func (w *worker) output(outFile *mpiio.File, firstID int, aliveWorkers []int) error {
	r := w.r
	bounds := outputBounds(w.meta, len(w.queries))
	if w.meta.MemBudget > 0 {
		// Adaptive batching (§5): agree on batch boundaries sized to the
		// memory budget, using cheap per-query volume estimates (the
		// alignment panels dominate a block, ≈4 bytes per subject residue
		// in the aligned span).
		r.SetPhase(simtime.PhaseOutput)
		local := make([]int64, len(w.queries))
		for q := range w.queries {
			var est int64
			for _, hit := range w.hits[q] {
				for _, h := range hit.HSPs {
					est += int64(4*(h.SubjTo-h.SubjFrom)) + 256
				}
			}
			local[q] = est
		}
		bounds = adaptiveBounds(exchangeVolumes(r, local), w.meta.MemBudget)
	}
	for i := 0; i+1 < len(bounds); i++ {
		r.SetTraceBatch(firstID + i)
		if err := w.outputBatch(outFile, bounds[i], bounds[i+1], aliveWorkers); err != nil {
			return err
		}
	}
	return nil
}

// outputBatch runs the worker side of one batch's merge/output over
// queries[q0:q1]: local hit consolidation, optional early-prune exchange,
// result-caching block rendering (§3.2), metadata submission (flat or
// tree), and the selection-ordered collective write (§3.3).
func (w *worker) outputBatch(outFile *mpiio.File, q0, q1 int, aliveWorkers []int) error {
	r, meta := w.r, w.meta
	maxTargets := w.searcher.Options().MaxTargetSeqs
	r.SetPhase(simtime.PhaseOutput)
	// Consolidate each query's hits across this worker's parts.
	for q := q0; q < q1; q++ {
		blast.SortHits(w.hits[q])
		if len(w.hits[q]) > maxTargets {
			w.hits[q] = w.hits[q][:maxTargets]
		}
	}
	if meta.EarlyPrune {
		for q := q0; q < q1; q++ {
			scores := make([]int64, 0, len(w.hits[q]))
			for _, h := range w.hits[q] {
				scores = append(scores, int64(h.BestScore()))
			}
			threshold := exchangeThreshold(r, scores, maxTargets)
			kept := w.hits[q][:0]
			for _, h := range w.hits[q] {
				if int64(h.BestScore()) >= threshold {
					kept = append(kept, h)
				}
			}
			w.hits[q] = kept
		}
	}
	// Result caching (§3.2): render candidate blocks into memory and
	// submit metadata only.
	blocks := make(map[[2]int][]byte)
	bm := batchMetas{FirstQuery: q0}
	for q := q0; q < q1; q++ {
		qm := engine.QueryMeta{QueryIndex: q, Work: w.work[q]}
		for _, hit := range w.hits[q] {
			subj := w.frag.Subjects[w.byOID[hit.OID]].Residues
			block := []byte(blast.RenderHit(w.opts.OutFormat, w.queries[q], subj, hit, w.opts.Matrix))
			r.FormatCost(int64(len(block)))
			blocks[[2]int{q, hit.OID}] = block
			qm.Hits = append(qm.Hits, engine.MetaFromResult(r.ID(), hit, int64(len(block))))
		}
		bm.PerQuery = append(bm.PerQuery, qm)
	}
	r.Metrics().Counter("engine.blocks_rendered", r.ID()).Add(int64(len(blocks)))
	var sel selection
	if meta.Tree {
		// Hierarchical merge: fold this worker's metadata into the
		// k-ary reduction (pre-merging the group's bundles locally)
		// and take the layout from the down-tree broadcast.
		members := treeMembers(aliveWorkers)
		var combErr error
		if _, _, err := r.TreeReduce(0, meta.TreeFanout, members, bm.encode(), treeCombiner(r, maxTargets, &combErr)); err != nil {
			return err
		}
		if combErr != nil {
			return combErr
		}
		r.SetPhase(simtime.PhaseIdle)
		layout := r.TreeBcast(0, meta.TreeFanout, members, nil)
		s, ok, err := decodeSelectionBundle(layout, r.ID())
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: merge aborted: a peer crashed during the hierarchical merge")
		}
		sel = s
		r.SetPhase(simtime.PhaseOutput)
	} else {
		r.Send(0, tagResults, bm.encode())

		// Selection: assemble the chosen blocks in offset order and
		// write.
		data, _, _ := r.Recv(0, tagSelect)
		s, err := decodeSelection(data)
		if err != nil {
			return err
		}
		sel = s
	}
	idx := make([]int, len(sel.OIDs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return sel.Offsets[idx[a]] < sel.Offsets[idx[b]] })
	var view mpiio.View
	var buf []byte
	for _, i := range idx {
		key := [2]int{sel.Queries[i], sel.OIDs[i]}
		block, ok := blocks[key]
		if !ok {
			r.Metrics().Counter("engine.cache_misses", r.ID()).Inc()
			return fmt.Errorf("core: master selected unknown hit q=%d OID=%d", key[0], key[1])
		}
		r.Metrics().Counter("engine.cache_hits", r.ID()).Inc()
		if int64(len(block)) != sel.Lengths[i] {
			return fmt.Errorf("core: block size mismatch for q=%d OID=%d: %d vs %d",
				key[0], key[1], len(block), sel.Lengths[i])
		}
		view.Segments = append(view.Segments, mpiio.Segment{Offset: sel.Offsets[i], Length: sel.Lengths[i]})
		buf = append(buf, block...)
		r.MemCopy(int64(len(block)))
	}
	r.Metrics().Counter("engine.blocks_dropped", r.ID()).Add(int64(len(blocks) - len(idx)))
	if err := outFile.SetView(view); err != nil {
		return err
	}
	if meta.Independent {
		if err := outFile.WriteIndependent(buf); err != nil {
			return err
		}
		r.Barrier()
		return nil
	}
	return outFile.WriteCollective(buf)
}

// fixedBounds builds the boundary list for fixed-size batches. Zero
// queries yield the single boundary [0] — no batches — rather than a
// degenerate empty batch.
func fixedBounds(n, b int) []int {
	if n <= 0 {
		return []int{0}
	}
	if b < 1 {
		b = 1
	}
	bounds := []int{0}
	for start := b; start < n; start += b {
		bounds = append(bounds, start)
	}
	return append(bounds, n)
}

// fileCache deduplicates shared-file opens across a worker's partitions:
// each of the three per-volume database files is opened once and the
// handle reused for every extent of every partition, instead of three
// fresh opens per extent.
type fileCache struct {
	r     *mpi.Rank
	fs    *vfs.FS
	hints mpiio.Hints
	tuner *mpiio.Tuner
	open  map[string]*mpiio.File
}

func newFileCache(r *mpi.Rank, fs *vfs.FS, hints mpiio.Hints, tuner *mpiio.Tuner) *fileCache {
	return &fileCache{r: r, fs: fs, hints: hints, tuner: tuner, open: make(map[string]*mpiio.File)}
}

func (c *fileCache) file(path string) (*mpiio.File, error) {
	if f, ok := c.open[path]; ok {
		return f, nil
	}
	f, err := mpiio.Open(c.r, c.fs, path)
	if err != nil {
		return nil, err
	}
	if err := f.SetHints(c.hints); err != nil {
		return nil, err
	}
	f.SetTuner(c.tuner)
	c.open[path] = f
	return f, nil
}

// readPart reads one virtual fragment's extents from the global shared
// files — contiguous independent reads of the index slices, header range,
// and sequence range; no staging copy.
func readPart(files *fileCache, part []wireExtent) (*blast.Fragment, error) {
	frag := &blast.Fragment{}
	for _, e := range part {
		idx, err := files.file(formatdb.IndexPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		count := e.To - e.From
		hdrOffs := formatdb.DecodeOffsets(idx.ReadAt(e.HdrArrayPos, 8*int64(count+1)))
		seqOffs := formatdb.DecodeOffsets(idx.ReadAt(e.SeqArrayPos, 8*int64(count+1)))
		hdrFile, err := files.file(formatdb.HeaderPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		seqFile, err := files.file(formatdb.SeqPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		hdrBuf := hdrFile.ReadContiguous(e.HdrOff, e.HdrLen)
		seqBuf := seqFile.ReadContiguous(e.SeqOff, e.SeqLen)
		recs, err := formatdb.DecodeWithOffsets(e.OIDFrom, hdrOffs, seqOffs, hdrBuf, seqBuf)
		if err != nil {
			return nil, err
		}
		appendRecords(frag, recs)
	}
	return frag, nil
}

func appendRecords(frag *blast.Fragment, recs []formatdb.Record) {
	for _, rec := range recs {
		frag.Subjects = append(frag.Subjects, blast.Subject{
			OID: rec.OID, ID: rec.ID, Defline: rec.Defline, Residues: rec.Residues,
		})
	}
}

// partFetch holds one partition's in-flight asynchronous extent reads:
// four per extent (header-offset array, sequence-offset array, header
// range, sequence range), issued in readPart's order.
type partFetch struct {
	part  []wireExtent
	reads []*mpiio.AsyncRead
}

// startPartFetch issues the asynchronous reads for one partition without
// advancing the worker's clock — the prefetch half of the input/search
// overlap pipeline.
func startPartFetch(files *fileCache, part []wireExtent) (*partFetch, error) {
	pf := &partFetch{part: part}
	for _, e := range part {
		idx, err := files.file(formatdb.IndexPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		hdrFile, err := files.file(formatdb.HeaderPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		seqFile, err := files.file(formatdb.SeqPath(e.VolBase))
		if err != nil {
			return nil, err
		}
		count := int64(e.To - e.From)
		pf.reads = append(pf.reads,
			idx.StartReadAt(e.HdrArrayPos, 8*(count+1)),
			idx.StartReadAt(e.SeqArrayPos, 8*(count+1)),
			hdrFile.StartReadAt(e.HdrOff, e.HdrLen),
			seqFile.StartReadAt(e.SeqOff, e.SeqLen))
	}
	return pf, nil
}

// finish waits out the partition's reads and decodes the fragment —
// byte-for-byte the same result as readPart.
func (pf *partFetch) finish() (*blast.Fragment, error) {
	frag := &blast.Fragment{}
	ri := 0
	next := func() []byte {
		buf := pf.reads[ri].Wait()
		ri++
		return buf
	}
	for _, e := range pf.part {
		hdrOffs := formatdb.DecodeOffsets(next())
		seqOffs := formatdb.DecodeOffsets(next())
		hdrBuf := next()
		seqBuf := next()
		recs, err := formatdb.DecodeWithOffsets(e.OIDFrom, hdrOffs, seqOffs, hdrBuf, seqBuf)
		if err != nil {
			return nil, err
		}
		appendRecords(frag, recs)
	}
	return frag, nil
}

// packRequests merges possibly overlapping or out-of-order byte ranges
// into a valid (sorted, disjoint) view and returns a slicer recovering
// each original range from the buffer a view-based read yields. Adjacent
// partitions share index-array boundary entries, so their ranges overlap
// by one record — exactly what a single rank owning adjacent partitions
// produces.
func packRequests(reqs []mpiio.Segment) (mpiio.View, func(buf []byte, i int) []byte) {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return reqs[order[a]].Offset < reqs[order[b]].Offset })
	var view mpiio.View
	for _, i := range order {
		s := reqs[i]
		if s.Length == 0 {
			continue
		}
		if n := len(view.Segments); n > 0 {
			last := &view.Segments[n-1]
			if s.Offset <= last.Offset+last.Length {
				if end := s.Offset + s.Length; end > last.Offset+last.Length {
					last.Length = end - last.Offset
				}
				continue
			}
		}
		view.Segments = append(view.Segments, s)
	}
	pos := make([]int64, len(view.Segments))
	var acc int64
	for i, s := range view.Segments {
		pos[i] = acc
		acc += s.Length
	}
	slicer := func(buf []byte, i int) []byte {
		q := reqs[i]
		j := sort.Search(len(view.Segments), func(k int) bool {
			s := view.Segments[k]
			return s.Offset+s.Length > q.Offset
		})
		start := pos[j] + (q.Offset - view.Segments[j].Offset)
		end := start + q.Length
		if end > int64(len(buf)) {
			end = int64(len(buf))
		}
		return buf[start:end]
	}
	return view, slicer
}

// readPartsCollective loads the given partitions with collective two-phase
// reads: for every database volume (in the deterministic order all ranks
// derive from meta.Parts), three ReadCollective calls cover the index
// arrays, header ranges, and sequence ranges of everyone's extents. Ranks
// with no extents in a volume — the master always — participate with empty
// views. Returns one fragment per requested partition, identical to what
// readPart produces.
func readPartsCollective(r *mpi.Rank, files *fileCache, meta jobMeta, mine []int) (map[int]*blast.Fragment, error) {
	var vols []string
	seen := make(map[string]bool)
	for _, part := range meta.Parts {
		for _, e := range part {
			if !seen[e.VolBase] {
				seen[e.VolBase] = true
				vols = append(vols, e.VolBase)
			}
		}
	}
	frags := make(map[int]*blast.Fragment, len(mine))
	type pending struct {
		part int
		e    wireExtent
		recs []formatdb.Record
	}
	for _, pi := range mine {
		frags[pi] = &blast.Fragment{}
	}
	for _, vol := range vols {
		// My extents in this volume, in partition order.
		var exts []pending
		for _, pi := range mine {
			for _, e := range meta.Parts[pi] {
				if e.VolBase == vol {
					exts = append(exts, pending{part: pi, e: e})
				}
			}
		}
		var idxReqs, hdrReqs, seqReqs []mpiio.Segment
		for _, x := range exts {
			arr := 8 * int64(x.e.To-x.e.From+1)
			idxReqs = append(idxReqs,
				mpiio.Segment{Offset: x.e.HdrArrayPos, Length: arr},
				mpiio.Segment{Offset: x.e.SeqArrayPos, Length: arr})
			hdrReqs = append(hdrReqs, mpiio.Segment{Offset: x.e.HdrOff, Length: x.e.HdrLen})
			seqReqs = append(seqReqs, mpiio.Segment{Offset: x.e.SeqOff, Length: x.e.SeqLen})
		}
		readAll := func(path string, reqs []mpiio.Segment) ([]byte, func([]byte, int) []byte, error) {
			f, err := files.file(path)
			if err != nil {
				return nil, nil, err
			}
			view, slicer := packRequests(reqs)
			if err := f.SetView(view); err != nil {
				return nil, nil, err
			}
			buf, err := f.ReadCollective()
			return buf, slicer, err
		}
		idxBuf, idxAt, err := readAll(formatdb.IndexPath(vol), idxReqs)
		if err != nil {
			return nil, err
		}
		hdrBuf, hdrAt, err := readAll(formatdb.HeaderPath(vol), hdrReqs)
		if err != nil {
			return nil, err
		}
		seqBuf, seqAt, err := readAll(formatdb.SeqPath(vol), seqReqs)
		if err != nil {
			return nil, err
		}
		for i, x := range exts {
			hdrOffs := formatdb.DecodeOffsets(idxAt(idxBuf, 2*i))
			seqOffs := formatdb.DecodeOffsets(idxAt(idxBuf, 2*i+1))
			recs, err := formatdb.DecodeWithOffsets(x.e.OIDFrom, hdrOffs, seqOffs,
				hdrAt(hdrBuf, i), seqAt(seqBuf, i))
			if err != nil {
				return nil, err
			}
			appendRecords(frags[x.part], recs)
		}
	}
	return frags, nil
}

// exchangeThreshold implements early score communication: ranks gather
// everyone's candidate scores and return the global k-th best (or a
// sentinel minimum when fewer than k hits exist anywhere). Deterministic
// and identical on every rank.
func exchangeThreshold(r *mpi.Rank, scores []int64, k int) int64 {
	buf := make([]byte, 8*len(scores))
	for i, s := range scores {
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(uint64(s) >> (8 * b))
		}
	}
	all := r.AllGather(buf)
	var flat []int64
	for _, d := range all {
		for i := 0; i+8 <= len(d); i += 8 {
			var v uint64
			for b := 0; b < 8; b++ {
				v |= uint64(d[i+b]) << (8 * b)
			}
			flat = append(flat, int64(v))
		}
	}
	if len(flat) < k {
		return -1 << 62
	}
	sort.Slice(flat, func(a, b int) bool { return flat[a] > flat[b] })
	return flat[k-1]
}

// AdaptiveBoundsForTest exposes the batch-boundary computation to tests.
func AdaptiveBoundsForTest(volumes []int64, budget int64) []int {
	return adaptiveBounds(volumes, budget)
}

// FixedBoundsForTest exposes the fixed batch-boundary computation to tests.
func FixedBoundsForTest(n, b int) []int {
	return fixedBounds(n, b)
}

// ExchangeThresholdForTest exposes the early-score threshold exchange.
func ExchangeThresholdForTest(r *mpi.Rank, scores []int64, k int) int64 {
	return exchangeThreshold(r, scores, k)
}
