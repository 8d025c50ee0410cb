// Package mpiblast implements the baseline parallel BLAST the paper starts
// from (mpiBLAST 1.2.1's architecture):
//
//   - the database is PRE-PARTITIONED into physical fragment files
//     (mpiformatdb); the fragments live on the shared file system;
//   - a master greedily assigns unsearched fragments to idle workers;
//   - each worker COPIES its fragment's files to node-local storage (or to
//     shared scratch space when the platform exposes no local disks, as on
//     the paper's Altix) before searching;
//   - result merging is serialized through the master: workers submit
//     local result alignments, the master sorts them and then FETCHES the
//     alignment data of every selected hit from its owning worker with one
//     request/reply round trip per hit, formats everything itself, and
//     writes the single output file alone.
//
// Every one of those design points is a cost the pioBLAST engine
// (internal/core) removes; this package exists so each figure can compare
// the two.
//
// Run (flat or tree merge) and Serve share one setup, one worker prologue
// and one definition of each stage: the copy stage (worker.stage), the
// per-fragment search loop (worker.search), the tree fold on each side
// (foldTree), the master's render/fetch/write stage
// (outputStage.writeQuery) and the worker's fetch service
// (worker.serveFetches). The flat, tree and serving masters keep only
// their own assignment or collection logic.
package mpiblast

import (
	"bytes"
	"errors"
	"fmt"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/formatdb"
	"parblast/internal/mpi"
	"parblast/internal/mpiio"
	"parblast/internal/seq"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
)

// Message tags (all below the mpiio-reserved space).
const (
	tagWorkReq = 1
	tagAssign  = 2
	tagResults = 3
	tagFetch   = 4
	tagHitData = 5
	tagRelease = 6
)

// jobMeta is the broadcast that seeds every worker. The shell is cold-path
// gob; the query payload inside is pre-encoded with the compact codec
// (engine.EncodeWireQueries), since it dominates the broadcast bytes.
// Its gob shape and serveBatchMsg's — field names, types and order — are
// frozen: Bcast charges by payload bytes, so any change to them moves every
// rank's virtual clock.
type jobMeta struct {
	Queries   []byte // engine.EncodeWireQueries payload
	Title     string
	Kind      seq.Kind
	NumSeqs   int
	TotalLen  int64
	FragBases []string
	// Tree selects the hierarchical tree merge; TreeFanout is the k-ary
	// reduction fan-out.
	Tree       bool
	TreeFanout int
	// Serve marks a streaming run: Queries is empty, and each batch's
	// queries arrive in a per-batch broadcast instead (see serve.go).
	Serve bool
}

type fetchKey struct {
	Query int
	OID   int
}

// resultsMsg is one worker's per-(query, fragment) result submission. As in
// mpiBLAST, it carries the LOCAL RESULT ALIGNMENTS themselves (coordinates,
// scores, traces — everything except the subject residues the output
// formatter needs, which the master fetches later per selected hit).
// pioBLAST's equivalent message carries only flat metadata; this asymmetry
// is the §3.2 message-volume reduction.
type resultsMsg struct {
	Query    int
	Fragment int
	Worker   int
	Work     blast.WorkCounters
	Hits     []engine.WireHit // residues stripped
}

func (m *resultsMsg) encode() []byte {
	var w engine.Writer
	w.Int(int64(m.Query))
	w.Int(int64(m.Fragment))
	w.Int(int64(m.Worker))
	engine.EncodeWork(&w, m.Work)
	w.Uint(uint64(len(m.Hits)))
	for _, h := range m.Hits {
		engine.EncodeWireHit(&w, h)
	}
	return w.Bytes()
}

func decodeResultsMsg(data []byte) (resultsMsg, error) {
	r := engine.NewReader(data)
	m := resultsMsg{
		Query:    int(r.Int()),
		Fragment: int(r.Int()),
		Worker:   int(r.Int()),
		Work:     engine.DecodeWork(r),
	}
	n := int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Hits = append(m.Hits, engine.DecodeWireHit(r))
	}
	return m, r.Err()
}

func (k fetchKey) encode() []byte {
	var w engine.Writer
	w.Int(int64(k.Query))
	w.Int(int64(k.OID))
	return w.Bytes()
}

func decodeFetchKey(data []byte) (fetchKey, error) {
	r := engine.NewReader(data)
	k := fetchKey{Query: int(r.Int()), OID: int(r.Int())}
	return k, r.Err()
}

// PrepareFragments runs the mpiformatdb step: it physically fragments the
// formatted database into n standalone fragment databases on the shared
// file system and returns their base names. The paper counts this as
// operational overhead OUTSIDE the timed run (it must be redone whenever
// the worker count outgrows the fragment count). A fragment holds at
// least one sequence, so n above the database's sequence count is an
// error.
func PrepareFragments(fs *vfs.FS, dbBase string, n int) ([]string, error) {
	db, err := formatdb.Open(fs, dbBase)
	if err != nil {
		return nil, err
	}
	if n > db.NumSeqs {
		return nil, fmt.Errorf("mpiblast: %d fragments requested but database %q has only %d sequences", n, dbBase, db.NumSeqs)
	}
	frags, err := db.PhysicalFragment(fs, n)
	if err != nil {
		return nil, err
	}
	bases := make([]string, len(frags))
	for i, f := range frags {
		bases[i] = f.Base
	}
	return bases, nil
}

// Options selects baseline variants.
type Options struct {
	// FetchWindow pipelines the master's per-hit fetch phase: up to this
	// many requests are kept in flight instead of strictly one
	// request/reply at a time (the 1.2.1 behaviour the paper measured).
	// 0 or 1 keeps the faithful serial fetch. This is an ablation: it
	// quantifies how much of the baseline's output time is pure round-trip
	// serialization versus master-side processing.
	FetchWindow int
	// TreeMerge replaces the per-(query, fragment) result streams through
	// the master with the hierarchical tree merge: workers hold results
	// locally, pre-merge to the per-query top-k, and fold one bundle per
	// member up a k-ary reduction tree. The serial per-hit fetch stays —
	// this fixes the merge serialization, not the fetch round trips.
	TreeMerge bool
	// MergeFanout is the reduction-tree fan-out for TreeMerge
	// (0 = mpi.DefaultTreeFanout).
	MergeFanout int
}

// Run executes the baseline engine on nprocs ranks (rank 0 is the master;
// workers are 1..nprocs-1) under the given MPI configuration. nodes[i] is
// rank i's storage view. The physical fragments must already exist
// (PrepareFragments).
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
	nodes  []*vfs.Node
	nprocs int
	cfg    mpi.Config
	job    *engine.Job
	opts   Options
	meta   jobMeta
	// ft arms the master's failure detection, polling every ftTimeout
	// virtual seconds (250 × NetLatency).
	ft        bool
	ftTimeout float64
}

// newSession validates a run — serve adds the serving mode's own limits —
// checks the physical fragments and builds the job broadcast.
func newSession(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options, serve bool) (*session, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if nprocs < 2 {
		return nil, fmt.Errorf("mpiblast: need ≥2 ranks (1 master + workers), got %d", nprocs)
	}
	if len(nodes) < nprocs {
		return nil, fmt.Errorf("mpiblast: %d nodes for %d ranks", len(nodes), nprocs)
	}
	if serve && len(cfg.Faults) > 0 {
		return nil, fmt.Errorf("mpiblast: serve mode does not support fault injection (fragment re-copy recovery is one-shot only)")
	}
	// Failure recovery only covers workers: the master holds the merged
	// results and the failure detector itself.
	for _, f := range cfg.Faults {
		if f.Rank == 0 && f.Kind == mpi.FaultCrash {
			return nil, fmt.Errorf("mpiblast: cannot inject a crash into rank 0 (the master)")
		}
	}
	fanout := opts.MergeFanout
	if fanout == 0 {
		fanout = mpi.DefaultTreeFanout
	}
	if opts.TreeMerge && fanout < 2 {
		return nil, fmt.Errorf("mpiblast: merge fan-out %d < 2", opts.MergeFanout)
	}
	shared := nodes[0].Shared
	db, err := formatdb.Open(shared, job.DBBase)
	if err != nil {
		return nil, err
	}
	nFrags := job.Fragments
	if nFrags == 0 {
		nFrags = nprocs - 1 // natural partitioning
	}
	fragBases := make([]string, nFrags)
	for i := range fragBases {
		fragBases[i] = fmt.Sprintf("%s.frag%03d", job.DBBase, i)
		if _, err := shared.Open(formatdb.IndexPath(fragBases[i])); err != nil {
			return nil, fmt.Errorf("mpiblast: fragment %d missing (run PrepareFragments): %w", i, err)
		}
	}
	meta := jobMeta{
		Title:      db.Title,
		Kind:       db.Kind,
		NumSeqs:    db.NumSeqs,
		TotalLen:   db.TotalResidues,
		FragBases:  fragBases,
		Tree:       opts.TreeMerge,
		TreeFanout: fanout,
		Serve:      serve,
	}
	if !serve {
		meta.Queries = engine.EncodeWireQueries(engine.PackQueries(job.Queries))
	}
	if cfg.Comm == nil {
		cfg.Comm = mpi.NewCommStats(nprocs)
	}
	return &session{
		nodes: nodes, nprocs: nprocs, cfg: cfg, job: job, opts: opts, meta: meta,
		ft: len(cfg.Faults) > 0, ftTimeout: 250 * cfg.Cost.NetLatency,
	}, nil
}

// launch runs the protocol's master on rank 0 and the worker everywhere
// else, and summarizes the run; st is the arrival stream of a serving run,
// nil for a one-shot run.
func (s *session) launch(st *stream) (engine.RunResult, error) {
	// Per-query latency sink, appended by the master goroutine only and
	// read after mpi.RunConfig returns (the run's WaitGroup is the barrier).
	var qlat []float64
	clocks, err := mpi.RunConfig(s.nprocs, s.cfg, func(r *mpi.Rank) error {
		if r.ID() != 0 {
			return runWorker(r, s.nodes[r.ID()], s.job.Options)
		}
		if st != nil {
			return s.runServeMaster(r, st, &qlat)
		}
		if s.meta.Tree {
			return s.runMasterTree(r, &qlat)
		}
		return s.runMaster(r, &qlat)
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

// startMaster charges the master's setup and broadcasts the job; the
// returned clock is a one-shot job's admission time — every query is "in
// the system" once the broadcast completes.
func (s *session) startMaster(r *mpi.Rank) float64 {
	r.SetPhase(simtime.PhaseOther)
	r.Advance(r.Cost().SetupCost)
	r.Bcast(0, engine.EncodeGob(s.meta))
	return r.Clock().Now()
}

// ingestResults charges the master for splicing one worker's result
// submission into its tables — real work on its critical path — and
// returns the submission's hits tagged with their owner.
func ingestResults(r *mpi.Rank, msg resultsMsg) []treeHit {
	r.SetPhase(simtime.PhaseOutput)
	r.Advance(r.Cost().ResultMsgCost + float64(len(msg.Hits))*r.Cost().MergeItemCost)
	hits := make([]treeHit, 0, len(msg.Hits))
	for _, wh := range msg.Hits {
		hits = append(hits, treeHit{Worker: msg.Worker, Hit: wh})
	}
	return hits
}

func (s *session) runMaster(r *mpi.Rank, qlat *[]float64) error {
	admit := s.startMaster(r)
	workers := r.Size() - 1
	nFrags := len(s.meta.FragBases)
	nQueries := len(s.job.Queries)

	// While the workers copy and search, the master serves assignments and
	// collects result metadata — mostly waiting. Results are kept PER
	// FRAGMENT (not just per query) so that a crashed worker's partial
	// contributions can be purged and its fragments re-searched: recovery is
	// expensive here by construction, because the replacement worker must
	// re-COPY the physical fragment files before searching (contrast with
	// pioBLAST, which only re-issues offset ranges).
	r.SetPhase(simtime.PhaseIdle)
	fragHits := make([][][]treeHit, nFrags)
	fragWork := make([][]blast.WorkCounters, nFrags)
	got := make([][]bool, nFrags)
	fragQueue := make([]int, 0, nFrags)
	for f := 0; f < nFrags; f++ {
		fragHits[f] = make([][]treeHit, nQueries)
		fragWork[f] = make([]blast.WorkCounters, nQueries)
		got[f] = make([]bool, nQueries)
		fragQueue = append(fragQueue, f)
	}
	alive := make([]int, 0, workers)
	current := make([]int, workers+1) // fragment in flight per worker (-1 none)
	doneBy := make([][]int, workers+1)
	for w := 1; w <= workers; w++ {
		alive = append(alive, w)
		current[w] = -1
	}
	releasedSet := make(map[int]bool) // workers already told "done"
	var parked []int                  // requesters waiting for a possible requeue
	remaining := nFrags * nQueries    // (fragment, query) results outstanding

	release := func(w int) {
		r.Send(w, tagAssign, engine.EncodeInt(-1))
		releasedSet[w] = true
	}
	assign := func(w int) bool {
		if len(fragQueue) == 0 {
			return false
		}
		f := fragQueue[0]
		fragQueue = fragQueue[1:]
		current[w] = f
		r.Send(w, tagAssign, engine.EncodeInt(f))
		return true
	}
	// purgeDead removes crashed workers, reclaims every fragment they
	// searched or were searching, and serves parked requesters from the
	// replenished queue.
	purgeDead := func() {
		live := alive[:0]
		for _, w := range alive {
			if !r.Failed(w) {
				live = append(live, w)
				continue
			}
			lost := append([]int(nil), doneBy[w]...)
			if current[w] >= 0 {
				lost = append(lost, current[w])
			}
			for _, f := range lost {
				for q := 0; q < nQueries; q++ {
					if got[f][q] {
						got[f][q] = false
						fragHits[f][q] = nil
						fragWork[f][q] = blast.WorkCounters{}
						remaining++
					}
				}
				fragQueue = append(fragQueue, f)
			}
			r.Metrics().Counter("engine.frags_requeued", r.ID()).Add(int64(len(lost)))
			doneBy[w] = nil
			current[w] = -1
			delete(releasedSet, w)
		}
		alive = live
		keep := parked[:0]
		for _, w := range parked {
			if r.Failed(w) {
				continue
			}
			if assign(w) {
				continue
			}
			if remaining == 0 {
				release(w)
				continue
			}
			keep = append(keep, w)
		}
		parked = keep
	}

	for remaining > 0 || len(releasedSet) < len(alive) {
		var data []byte
		var from, tag int
		if s.ft {
			var err error
			data, from, tag, err = r.RecvTimeout(mpi.AnySource, mpi.AnyTag, s.ftTimeout)
			if err != nil {
				// Timed out: check ground truth for crashed workers.
				purgeDead()
				if len(alive) == 0 {
					return fmt.Errorf("mpiblast: all workers failed; cannot recover")
				}
				continue
			}
			if r.Failed(from) {
				continue // stale message from a crashed worker
			}
		} else {
			data, from, tag = r.Recv(mpi.AnySource, mpi.AnyTag)
		}
		switch tag {
		case tagWorkReq:
			if cur := current[from]; cur >= 0 {
				// A worker only asks again once its previous fragment's
				// results are fully submitted.
				doneBy[from] = append(doneBy[from], cur)
				current[from] = -1
			}
			if assign(from) {
				break
			}
			if s.ft && remaining > 0 {
				// Queue empty but results outstanding: park the requester —
				// a crashed peer's fragment may yet need a new home.
				parked = append(parked, from)
				break
			}
			release(from)
		case tagResults:
			msg, err := decodeResultsMsg(data)
			if err != nil {
				return err
			}
			if got[msg.Fragment][msg.Query] {
				break // duplicate after a requeue race; first submission wins
			}
			got[msg.Fragment][msg.Query] = true
			fragHits[msg.Fragment][msg.Query] = ingestResults(r, msg)
			fragWork[msg.Fragment][msg.Query] = msg.Work
			r.SetPhase(simtime.PhaseIdle)
			remaining--
			if remaining == 0 {
				// Everything is in: release any parked requesters.
				for _, w := range parked {
					release(w)
				}
				parked = nil
			}
		default:
			return fmt.Errorf("mpiblast: master got unexpected tag %d from %d", tag, from)
		}
	}

	// Serialized result merging and output (§2.2 / Figure 2 right side).
	r.SetPhase(simtime.PhaseOutput)
	o, err := s.newOutputStage(r)
	if err != nil {
		return err
	}
	for qi, q := range s.job.Queries {
		// The serialized merge handles one query at a time: stamp it as the
		// trace context so the fetch round-trips it triggers carry it.
		r.SetTraceBatch(qi)
		// Concatenate this query's hits in fragment order — deterministic
		// regardless of result arrival order or crash recovery (MergeHits
		// imposes a total order anyway).
		var qhits []treeHit
		var qwork blast.WorkCounters
		for f := 0; f < nFrags; f++ {
			qhits = append(qhits, fragHits[f][qi]...)
			qwork.Add(fragWork[f][qi])
		}
		r.Advance(float64(len(qhits)) * r.Cost().MergeItemCost)
		kept, err := o.writeQuery(qi, q, qhits, qwork, admit, qlat)
		if err != nil {
			return err
		}
		engine.RecordMerge(r.Metrics(), r.ID(), len(qhits), kept)
	}
	return s.finishMaster(r, alive)
}

// finishMaster releases the workers' fetch service and closes the run.
func (s *session) finishMaster(r *mpi.Rank, alive []int) error {
	for _, w := range alive {
		r.Send(w, tagRelease, nil)
	}
	r.SetPhase(simtime.PhaseOther)
	r.Barrier()
	return nil
}

// outputStage is the master's serialized render/fetch/write stage, shared
// by every protocol: the output file and its running offset persist across
// queries (and stream batches).
type outputStage struct {
	r          *mpi.Rank
	s          *session
	searcher   *blast.Searcher
	maxTargets int
	dbInfo     blast.DBInfo
	out        *mpiio.File
	off        int64
}

func (s *session) newOutputStage(r *mpi.Rank) (*outputStage, error) {
	searcher, err := blast.NewSearcher(s.job.Options)
	if err != nil {
		return nil, err
	}
	return &outputStage{
		r: r, s: s, searcher: searcher, maxTargets: searcher.Options().MaxTargetSeqs,
		dbInfo: blast.DBInfo{Title: s.meta.Title, NumSeqs: s.meta.NumSeqs, TotalLen: s.meta.TotalLen},
		out:    mpiio.OpenOrCreate(r, s.nodes[0].Shared, s.job.OutputPath),
	}, nil
}

// writeQuery merges query qi's candidate hits, fetches every selected
// hit's residues from its owning worker — one serial request/reply per hit
// in faithful mode (the bottleneck the paper measured at >40% of
// mpiBLAST's output time), or with a sliding window of outstanding
// requests in the pipelined ablation — renders the report, appends it to
// the output file, and settles the query's latency from arrival. It
// returns how many candidates the merge kept.
func (o *outputStage) writeQuery(qi int, q *seq.Sequence, hits []treeHit, work blast.WorkCounters, arrival float64, qlat *[]float64) (int, error) {
	r, s := o.r, o.s
	byOID := make(map[int]*blast.SubjectResult, len(hits))
	metas := make([]engine.HitMeta, 0, len(hits))
	for _, th := range hits {
		res, _ := th.Hit.Unpack()
		byOID[res.OID] = res
		metas = append(metas, engine.MetaFromResult(th.Worker, res, 0))
	}
	merged := engine.MergeHits(metas, o.maxTargets)

	outFormat := s.job.Options.OutFormat
	var text bytes.Buffer
	text.WriteString(blast.RenderHeader(outFormat, s.meta.Kind, q, o.dbInfo))
	text.WriteString(blast.RenderSummary(outFormat, engine.SummaryResults(merged)))
	window := max(s.opts.FetchWindow, 1)
	sent := 0
	for done := 0; done < len(merged); done++ {
		for sent < len(merged) && sent-done < window {
			h := merged[sent]
			r.Send(h.Worker, tagFetch, fetchKey{Query: qi, OID: h.OID}.encode())
			sent++
		}
		h := merged[done]
		residues, err := o.fetchRecv(h.Worker)
		if err != nil {
			return 0, err
		}
		block := blast.RenderHit(outFormat, q, residues, byOID[h.OID], s.job.Options.Matrix)
		r.FormatCost(int64(len(block)))
		r.Advance(r.Cost().FetchItemCost)
		text.WriteString(block)
	}
	space := engine.SearchSpaceFor(o.searcher, q.Len(), s.meta.TotalLen, s.meta.NumSeqs)
	text.WriteString(blast.RenderFooter(outFormat, o.searcher.GappedParams(), space, work))
	r.FormatCost(int64(text.Len()) / 8) // header/summary/footer rendering
	o.out.WriteAt(text.Bytes(), o.off)
	o.off += int64(text.Len())
	// The query's merged report is on disk: its end-to-end latency is
	// settled on the master's clock.
	lat := r.Clock().Now() - arrival
	*qlat = append(*qlat, lat)
	engine.RecordQueryLatency(r.Metrics(), r.ID(), lat)
	return len(merged), nil
}

// fetchRecv collects one fetched hit; under fault injection a crash at
// this point is unrecoverable (the hit data lives only in the dead
// worker's memory), so it surfaces as a clean error.
func (o *outputStage) fetchRecv(w int) ([]byte, error) {
	if !o.s.ft {
		residues, _, _ := o.r.Recv(w, tagHitData)
		return residues, nil
	}
	for {
		residues, _, _, err := o.r.RecvTimeout(w, tagHitData, o.s.ftTimeout)
		if err == nil {
			return residues, nil
		}
		if errors.Is(err, mpi.ErrRankFailed) {
			return nil, fmt.Errorf("mpiblast: worker %d crashed during the output phase; recovery only covers the search phase: %w", w, err)
		}
	}
}

// worker is one worker rank's state: its search context, its local staging
// target, and the residues of every hit the master may fetch.
type worker struct {
	r        *mpi.Rank
	node     *vfs.Node
	meta     jobMeta
	searcher *blast.Searcher
	ctx      *blast.Context
	staging  *vfs.FS
	prefix   string
	hits     map[fetchKey][]byte
}

// runWorker is every protocol's worker: setup and the job broadcast, then
// the one-shot (flat or tree) or serving body, then the closing barrier.
func runWorker(r *mpi.Rank, node *vfs.Node, opts blast.Options) error {
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
	w := &worker{r: r, node: node, meta: meta, searcher: searcher, ctx: searcher.NewContext(), staging: node.Local}
	// Local staging target: node-local disk, or shared scratch when the
	// platform has none (the paper's Altix configuration).
	if w.staging == nil {
		w.staging = node.Shared
		w.prefix = fmt.Sprintf("scratch/rank%03d/", r.ID())
	}
	if meta.Serve {
		err = w.serve()
	} else {
		err = w.oneShot()
	}
	if err != nil {
		return err
	}
	r.SetPhase(simtime.PhaseOther)
	r.Barrier()
	return nil
}

// oneShot is the worker side of a one-shot run: search greedily assigned
// fragments, streaming each (query, fragment) result to the master or
// folding them all into the reduction tree, then serve fetches.
func (w *worker) oneShot() error {
	r := w.r
	wq, err := engine.DecodeWireQueries(w.meta.Queries)
	if err != nil {
		return err
	}
	queries := wq.Unpack()
	w.hits = make(map[fetchKey][]byte)
	bundle := newTreeResults(len(queries))
	var aliveWorkers []int
	searchedAny := false
	for {
		// Waiting for an assignment is startup time before the first
		// fragment; afterwards the wait queues behind the master's result
		// ingestion and belongs to the output (merging) phase.
		if searchedAny {
			r.SetPhase(simtime.PhaseOutput)
		} else {
			r.SetPhase(simtime.PhaseOther)
		}
		r.Send(0, tagWorkReq, nil)
		data, _, _ := r.Recv(0, tagAssign)
		var fragID int
		if w.meta.Tree {
			// The tree release carries the final survivor membership.
			fragID, aliveWorkers, err = decodeTreeAssign(data)
		} else {
			fragID, err = engine.DecodeInt(data)
		}
		if err != nil {
			return err
		}
		if fragID < 0 {
			break
		}
		searchedAny = true
		frag, err := w.stage(fragID)
		if err != nil {
			return err
		}
		if err := w.search(frag, fragID, queries, &bundle); err != nil {
			return err
		}
	}
	if w.meta.Tree {
		members := treeMembers(aliveWorkers)
		if err := w.foldTree(bundle, members); err != nil {
			return err
		}
		marker := r.TreeBcast(0, w.meta.TreeFanout, members, nil)
		if len(marker) != 1 || marker[0] == 0 {
			return fmt.Errorf("mpiblast: merge aborted: a peer crashed during the hierarchical merge")
		}
	}
	return w.serveFetches()
}

// stage copies a fragment's files from the shared file system to local
// staging, file by file, and loads the staged copy. NCBI BLAST
// memory-maps the fragment files, so the load is search time (the paper
// observes exactly that).
func (w *worker) stage(fragID int) (*blast.Fragment, error) {
	r, base := w.r, w.meta.FragBases[fragID]
	r.SetPhase(simtime.PhaseCopy)
	for _, path := range formatdb.FragmentFiles(base) {
		src, err := mpiio.Open(r, w.node.Shared, path)
		if err != nil {
			return nil, err
		}
		content := src.ReadAt(0, src.Size())
		dst := mpiio.OpenOrCreate(r, w.staging, w.prefix+path)
		dst.WriteAt(content, 0)
	}
	r.SetPhase(simtime.PhaseSearch)
	return loadFragment(r, w.staging, w.prefix+base)
}

// search runs queries against one fragment, recording every hit's
// residues for the fetch service. Each (query, fragment) result either
// streams to the master at once or, under the tree merge, accumulates in
// bundle for the reduction.
func (w *worker) search(frag *blast.Fragment, fragID int, queries []*seq.Sequence, bundle *treeResults) error {
	r := w.r
	r.SetPhase(simtime.PhaseSearch)
	for qi, q := range queries {
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
		for _, hit := range res.Hits {
			w.hits[fetchKey{Query: qi, OID: hit.OID}] = fragSubject(frag, hit.OID)
		}
		if w.meta.Tree {
			for _, hit := range res.Hits {
				bundle.Hits[qi] = append(bundle.Hits[qi], treeHit{Worker: r.ID(), Hit: engine.PackHit(hit, nil)})
			}
			bundle.Work[qi].Add(res.Work)
		} else {
			msg := resultsMsg{Query: qi, Fragment: fragID, Worker: r.ID(), Work: res.Work}
			for _, hit := range res.Hits {
				msg.Hits = append(msg.Hits, engine.PackHit(hit, nil))
			}
			r.SetPhase(simtime.PhaseOutput)
			r.Send(0, tagResults, msg.encode())
			r.SetPhase(simtime.PhaseSearch)
		}
		r.Yield()
	}
	return nil
}

// serveFetches answers the master's per-hit data requests until released.
// All waiting here is result-processing (output) time.
func (w *worker) serveFetches() error {
	r := w.r
	r.SetPhase(simtime.PhaseOutput)
	for {
		data, _, tag := r.Recv(0, mpi.AnyTag)
		if tag == tagRelease {
			return nil
		}
		key, err := decodeFetchKey(data)
		if err != nil {
			return err
		}
		residues, ok := w.hits[key]
		if !ok {
			r.Metrics().Counter("engine.cache_misses", r.ID()).Inc()
			return fmt.Errorf("mpiblast: worker %d asked for unknown hit %+v", r.ID(), key)
		}
		r.Metrics().Counter("engine.cache_hits", r.ID()).Inc()
		r.Send(0, tagHitData, residues)
	}
}

// loadFragment reads a staged fragment database into memory with charged
// I/O and wraps it as a kernel fragment.
func loadFragment(r *mpi.Rank, fs *vfs.FS, base string) (*blast.Fragment, error) {
	for _, path := range formatdb.FragmentFiles(base) {
		f, err := mpiio.Open(r, fs, path)
		if err != nil {
			return nil, err
		}
		f.ReadAt(0, f.Size()) // charge the (mmap-equivalent) input
	}
	db, err := formatdb.Open(fs, base)
	if err != nil {
		return nil, err
	}
	recs, err := db.ReadAll(fs)
	if err != nil {
		return nil, err
	}
	return engine.FragmentFromRecords(recs), nil
}

// fragSubject returns the residues of the subject with the given OID.
func fragSubject(frag *blast.Fragment, oid int) []byte {
	base := frag.Subjects[0].OID
	i := oid - base
	if i >= 0 && i < len(frag.Subjects) && frag.Subjects[i].OID == oid {
		return frag.Subjects[i].Residues
	}
	for k := range frag.Subjects {
		if frag.Subjects[k].OID == oid {
			return frag.Subjects[k].Residues
		}
	}
	panic(fmt.Sprintf("mpiblast: OID %d not in fragment", oid))
}
