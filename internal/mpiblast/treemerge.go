// Hierarchical tree merge for the baseline engine: instead of streaming
// every (query, fragment) result through the master during the search
// phase — the §3.2 serialization this repo's mergescale experiment
// measures — workers hold their results locally, pre-merge them to the
// per-query top-k with the master's exact selection rule, and fold them
// up a k-ary reduction tree. The master ingests O(fanout·log N) bundles
// on its clock instead of O(fragments·queries) messages, then renders and
// writes the output exactly as the flat baseline does (including the
// serial per-hit residue fetch, which stays the baseline's documented
// bottleneck — this path fixes the MERGE, not the fetch).
package mpiblast

import (
	"fmt"
	"sort"

	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/simtime"
)

// treeHit is one worker-owned hit riding the reduction tree: the wire
// alignment plus the owning worker, so the master can route the residue
// fetch after the merge.
type treeHit struct {
	Worker int
	Hit    engine.WireHit
}

// treeResults is one member's bundle payload: per-query work counters and
// pre-merged hit lists, indexed by query.
type treeResults struct {
	Work []blast.WorkCounters
	Hits [][]treeHit
}

func (t *treeResults) encode() []byte {
	var w engine.Writer
	w.Uint(uint64(len(t.Hits)))
	for q := range t.Hits {
		engine.EncodeWork(&w, t.Work[q])
		w.Uint(uint64(len(t.Hits[q])))
		for _, th := range t.Hits[q] {
			w.Int(int64(th.Worker))
			engine.EncodeWireHit(&w, th.Hit)
		}
	}
	return w.Bytes()
}

func decodeTreeResults(data []byte) (treeResults, error) {
	r := engine.NewReader(data)
	n := int(r.Uint())
	if r.Err() != nil || n < 0 || n > 1<<24 {
		return treeResults{}, fmt.Errorf("mpiblast: corrupt tree results header")
	}
	t := treeResults{Work: make([]blast.WorkCounters, n), Hits: make([][]treeHit, n)}
	for q := 0; q < n && r.Err() == nil; q++ {
		t.Work[q] = engine.DecodeWork(r)
		nh := int(r.Uint())
		for i := 0; i < nh && r.Err() == nil; i++ {
			th := treeHit{Worker: int(r.Int())}
			th.Hit = engine.DecodeWireHit(r)
			t.Hits[q] = append(t.Hits[q], th)
		}
	}
	return t, r.Err()
}

// sortCapTreeHits applies the global selection rule — (E-value asc, score
// desc, OID asc), capped at maxTargets — to one query's hit list. It is
// the same strict total order MergeHits imposes, so nested application up
// the tree equals the flat merge exactly.
func sortCapTreeHits(hits []treeHit, maxTargets int) []treeHit {
	type keyed struct {
		th     treeHit
		eValue float64
		score  int
		oid    int
	}
	ks := make([]keyed, len(hits))
	for i, th := range hits {
		res, _ := th.Hit.Unpack()
		ks[i] = keyed{th: th, eValue: res.BestEValue(), score: res.BestScore(), oid: res.OID}
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.eValue != b.eValue {
			return a.eValue < b.eValue
		}
		if a.score != b.score {
			return a.score > b.score
		}
		return a.oid < b.oid
	})
	if maxTargets > 0 && len(ks) > maxTargets {
		ks = ks[:maxTargets]
	}
	out := make([]treeHit, len(ks))
	for i := range ks {
		out[i] = ks[i].th
	}
	return out
}

// treeResultsCombiner folds two bundles: per query, concatenate and
// re-select. Merge work lands on the COMBINING rank's clock — the
// distribution that takes the merge off the master's critical path.
func treeResultsCombiner(r *mpi.Rank, maxTargets int, errp *error) func(a, b []byte) []byte {
	return func(a, b []byte) []byte {
		ra, err := decodeTreeResults(a)
		if err != nil {
			*errp = err
			return nil
		}
		rb, err := decodeTreeResults(b)
		if err != nil {
			*errp = err
			return nil
		}
		if len(ra.Hits) != len(rb.Hits) {
			*errp = fmt.Errorf("mpiblast: tree bundle query counts differ: %d vs %d", len(ra.Hits), len(rb.Hits))
			return nil
		}
		items := 0
		out := treeResults{Work: make([]blast.WorkCounters, len(ra.Hits)), Hits: make([][]treeHit, len(ra.Hits))}
		kept := 0
		for q := range ra.Hits {
			items += len(ra.Hits[q]) + len(rb.Hits[q])
			all := append(append([]treeHit(nil), ra.Hits[q]...), rb.Hits[q]...)
			out.Hits[q] = sortCapTreeHits(all, maxTargets)
			kept += len(out.Hits[q])
			out.Work[q] = ra.Work[q]
			out.Work[q].Add(rb.Work[q])
		}
		// One bundle ingest plus per-item merge work, charged where the
		// combine actually runs.
		r.Advance(r.Cost().ResultMsgCost + float64(items)*r.Cost().MergeItemCost)
		engine.RecordMerge(r.Metrics(), r.ID(), items, kept)
		return out.encode()
	}
}

// treeMembers is the reduction-tree membership: master plus live workers.
func treeMembers(alive []int) []int {
	members := make([]int, 0, len(alive)+1)
	members = append(members, 0)
	return append(members, alive...)
}

// encodeTreeAssign packs a tree-mode assignment: the fragment id, or -1
// for the release, which also carries the final survivor list so every
// rank derives the identical tree membership for the merge.
func encodeTreeAssign(frag int, alive []int) []byte {
	var w engine.Writer
	w.Int(int64(frag))
	w.Uint(uint64(len(alive)))
	for _, a := range alive {
		w.Int(int64(a))
	}
	return w.Bytes()
}

func decodeTreeAssign(data []byte) (frag int, alive []int, err error) {
	r := engine.NewReader(data)
	frag = int(r.Int())
	n := int(r.Uint())
	for i := 0; i < n && r.Err() == nil; i++ {
		alive = append(alive, int(r.Int()))
	}
	return frag, alive, r.Err()
}

// runMasterTree is the tree-merge master: the greedy fragment assignment
// protocol tracked by COMPLETION (a work request acknowledges the prior
// fragment — results never travel during search), one sweep release
// carrying the survivor membership, the tree reduction, and then the
// shared render/fetch/write output stage over the merged selection.
func (s *session) runMasterTree(r *mpi.Rank, qlat *[]float64) error {
	admit := s.startMaster(r)
	workers := r.Size() - 1
	nFrags := len(s.meta.FragBases)

	r.SetPhase(simtime.PhaseIdle)
	fragQueue := make([]int, 0, nFrags)
	for f := 0; f < nFrags; f++ {
		fragQueue = append(fragQueue, f)
	}
	alive := make([]int, 0, workers)
	current := make([]int, workers+1) // fragment in flight per worker (-1 none)
	doneBy := make([][]int, workers+1)
	for w := 1; w <= workers; w++ {
		alive = append(alive, w)
		current[w] = -1
	}
	var parked []int // idle requesters awaiting the sweep release

	assign := func(w int) bool {
		if len(fragQueue) == 0 {
			return false
		}
		f := fragQueue[0]
		fragQueue = fragQueue[1:]
		current[w] = f
		r.Send(w, tagAssign, encodeTreeAssign(f, nil))
		return true
	}
	complete := func() bool {
		if len(fragQueue) > 0 {
			return false
		}
		for _, w := range alive {
			if current[w] >= 0 {
				return false
			}
		}
		return true
	}
	// purgeDead reclaims every fragment a crashed worker completed or had
	// in flight: its results only ever existed in its memory, so the whole
	// set must be re-searched (the baseline's expensive recovery, same as
	// the flat path).
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
			fragQueue = append(fragQueue, lost...)
			r.Metrics().Counter("engine.frags_requeued", r.ID()).Add(int64(len(lost)))
			doneBy[w] = nil
			current[w] = -1
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
			keep = append(keep, w)
		}
		parked = keep
	}

	for !(complete() && len(parked) == len(alive)) {
		var from, tag int
		if s.ft {
			var err error
			_, from, tag, err = r.RecvTimeout(mpi.AnySource, mpi.AnyTag, s.ftTimeout)
			if err != nil {
				purgeDead()
				if len(alive) == 0 {
					return fmt.Errorf("mpiblast: all workers failed; cannot recover")
				}
				continue
			}
			if r.Failed(from) {
				continue // stale request from a crashed worker
			}
		} else {
			_, from, tag = r.Recv(mpi.AnySource, mpi.AnyTag)
		}
		if tag != tagWorkReq {
			return fmt.Errorf("mpiblast: tree master got unexpected tag %d from %d", tag, from)
		}
		if cur := current[from]; cur >= 0 {
			doneBy[from] = append(doneBy[from], cur)
			current[from] = -1
		}
		if assign(from) {
			continue
		}
		parked = append(parked, from)
	}
	// Sweep release: everyone learns the final membership at once.
	for _, w := range alive {
		r.Send(w, tagAssign, encodeTreeAssign(-1, alive))
	}

	// Hierarchical merge: the result is already the per-query selection.
	r.SetPhase(simtime.PhaseOutput)
	o, err := s.newOutputStage(r)
	if err != nil {
		return err
	}
	members := treeMembers(alive)
	res, contributors, err := o.foldTree(members, len(s.job.Queries))
	if err != nil {
		return err
	}
	if len(contributors) != len(members) {
		// A member died mid-merge; its results are unrecoverable. Stand
		// the survivors down, then fail cleanly — the same output-phase
		// contract as the flat path.
		r.TreeBcast(0, s.meta.TreeFanout, members, []byte{0})
		return fmt.Errorf("mpiblast: worker crashed during the hierarchical merge; recovery only covers the search phase")
	}
	r.TreeBcast(0, s.meta.TreeFanout, members, []byte{1})

	// Output stage: identical to the flat baseline, including the serial
	// per-hit residue fetch — only the merge feeding it changed.
	for qi, q := range s.job.Queries {
		// One query at a time through the output loop: stamp it as the
		// trace context so its fetch round-trips carry it.
		r.SetTraceBatch(qi)
		if _, err := o.writeQuery(qi, q, res.Hits[qi], res.Work[qi], admit, qlat); err != nil {
			return err
		}
	}
	return s.finishMaster(r, alive)
}

func newTreeResults(n int) treeResults {
	return treeResults{Work: make([]blast.WorkCounters, n), Hits: make([][]treeHit, n)}
}

// foldTree is the master side of the reduction: it contributes an identity
// bundle covering n queries and returns the folded per-query selection and
// the members that contributed.
func (o *outputStage) foldTree(members []int, n int) (treeResults, []int, error) {
	r := o.r
	r.SetPhase(simtime.PhaseOutput)
	identity := newTreeResults(n)
	var combErr error
	combined, contributors, err := r.TreeReduce(0, o.s.meta.TreeFanout, members, identity.encode(), treeResultsCombiner(r, o.maxTargets, &combErr))
	if err != nil {
		return treeResults{}, nil, err
	}
	if combErr != nil {
		return treeResults{}, nil, combErr
	}
	res, err := decodeTreeResults(combined)
	if err != nil {
		return treeResults{}, nil, err
	}
	if len(res.Hits) != n {
		return treeResults{}, nil, fmt.Errorf("mpiblast: tree merge returned %d queries, want %d", len(res.Hits), n)
	}
	return res, contributors, nil
}

// foldTree is the worker side of the reduction: cap every query to the
// global top-k locally (the "group" contribution) and fold the bundle in.
func (w *worker) foldTree(bundle treeResults, members []int) error {
	r := w.r
	r.SetPhase(simtime.PhaseOutput)
	maxTargets := w.searcher.Options().MaxTargetSeqs
	for qi := range bundle.Hits {
		bundle.Hits[qi] = sortCapTreeHits(bundle.Hits[qi], maxTargets)
	}
	var combErr error
	if _, _, err := r.TreeReduce(0, w.meta.TreeFanout, members, bundle.encode(), treeResultsCombiner(r, maxTargets, &combErr)); err != nil {
		return err
	}
	return combErr
}
