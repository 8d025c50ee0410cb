// Tree collectives: k-ary reduction, gather, and broadcast over an
// explicit member list, built from point-to-point messages so the per-hop
// latency and volume are charged where they really land. The flat
// collectives (Gather/AllGather) model the root link as the bottleneck —
// the master pays the total inbound volume — which is exactly the paper's
// §3.2 master-serialization problem. A k-ary tree spreads that cost: each
// node receives at most `fanout` bundles, so the root's critical path
// shrinks from O(N) message ingests to O(k·log_k N).
//
// # Topology
//
// Members are sorted ascending and the root rotated to position 0; the
// node at position p has parent (p-1)/fanout and children fanout·p+1 …
// fanout·p+fanout. Every rank derives the identical topology locally, and
// deriving it allocates nothing when the caller's member list is already
// ascending.
//
// # Crash handling
//
// Fault-free worlds run a tight fast path: blocking receives from exact
// children, one bundle per edge. Worlds with scheduled faults run a
// crash-aware protocol instead:
//
//   - each node collects subtree bundles with timeout-paced receives,
//     declaring a descendant lost when the ground-truth detector (Failed)
//     shows its whole forwarding chain dead, or — after a grace period —
//     when any node on the chain died (the safety net below recovers
//     prematurely abandoned data);
//   - a sender routes its bundle to its first LIVE ancestor, so the
//     subtree of a dead interior node is rebuilt around it on the fly;
//   - after the up phase, all members synchronize on a flat AllGather of
//     tiny coverage reports. Every member checks whether its own bundle's
//     coverage made it into the root's folded set; holders of undelivered
//     coverage (their forwarder crashed in custody) re-send directly to
//     the root, which collects exactly that pending set. A live member's
//     contribution therefore always survives; only a crashed rank can
//     take contributions down with it.
//
// The crash path REQUIRES members to include every live rank (it
// synchronizes on world-wide flat collectives); the engines always call it
// that way. Under fault schedules TreeBcast and TreeBarrier delegate to
// the flat Bcast/Barrier, which complete over survivors by construction.
package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Tree-collective message tags, inside the dedicated CollTagBase region so
// CommStats books the traffic as collective-operation volume.
const (
	tagTreeReduce = CollTagBase + 1
	tagTreeBcast  = CollTagBase + 2
)

// DefaultTreeFanout is the fan-out used when a caller passes no explicit
// preference. Four balances depth against per-node ingest for the rank
// counts the experiments sweep.
const DefaultTreeFanout = 4

// treeTopo is the deterministic k-ary layout of one member list, stored as
// the ascending members plus the root's index among them: position 0 is
// the root, positions 1 … ri hold sorted[0 … ri-1], and positions past ri
// hold the members above the root.
type treeTopo struct {
	fanout int
	sorted []int // ascending members: the caller's slice when already ascending
	ri     int   // index of the root in sorted
}

func newTreeTopo(root, fanout int, members []int) treeTopo {
	if fanout < 2 {
		panic(fmt.Sprintf("mpi: tree fanout %d < 2", fanout))
	}
	sorted := members
	if !strictlyAscending(members) {
		sorted = append([]int(nil), members...)
		sort.Ints(sorted)
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				panic(fmt.Sprintf("mpi: duplicate tree member %d", sorted[i]))
			}
		}
	}
	ri := sort.SearchInts(sorted, root)
	if ri == len(sorted) || sorted[ri] != root {
		panic(fmt.Sprintf("mpi: tree root %d not in members", root))
	}
	return treeTopo{fanout: fanout, sorted: sorted, ri: ri}
}

func strictlyAscending(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// size is the member count.
func (t treeTopo) size() int { return len(t.sorted) }

// member returns the rank at position p.
func (t treeTopo) member(p int) int {
	switch {
	case p == 0:
		return t.sorted[t.ri]
	case p <= t.ri:
		return t.sorted[p-1]
	default:
		return t.sorted[p]
	}
}

// posOf returns rank's position, or ok=false when it is not a member.
func (t treeTopo) posOf(rank int) (p int, ok bool) {
	i := sort.SearchInts(t.sorted, rank)
	switch {
	case i == len(t.sorted) || t.sorted[i] != rank:
		return -1, false
	case i == t.ri:
		return 0, true
	case i < t.ri:
		return i + 1, true
	default:
		return i, true
	}
}

func (t treeTopo) parent(p int) int { return (p - 1) / t.fanout }

// children returns the half-open position range [first, end) of p's
// children (empty for a leaf).
func (t treeTopo) children(p int) (first, end int) {
	first = min(t.fanout*p+1, t.size())
	end = min(t.fanout*p+t.fanout+1, t.size())
	return first, end
}

// depth is the number of hops from position p to the root.
func (t treeTopo) depth(p int) int {
	d := 0
	for p > 0 {
		p = t.parent(p)
		d++
	}
	return d
}

// maxDepth is the height of the whole tree.
func (t treeTopo) maxDepth() int {
	if t.size() <= 1 {
		return 0
	}
	return t.depth(t.size() - 1)
}

// subtree lists the positions rooted at p (p first, then ascending).
func (t treeTopo) subtree(p int) []int {
	out := []int{p}
	for i := 0; i < len(out); i++ {
		for c, end := t.children(out[i]); c < end; c++ {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// chainDead reports whether every node on the forwarding chain from
// position m up to (exclusive) position anc has crashed — the ground-truth
// condition under which m's contribution cannot reach anc anymore.
func (t treeTopo) chainDead(r *Rank, m, anc int) bool {
	for p := m; p != anc; p = t.parent(p) {
		if !r.Failed(t.member(p)) {
			return false
		}
	}
	return true
}

// chainDamaged reports whether any node on the chain from m up to
// (exclusive) anc has crashed — evidence that m's contribution may have
// been re-routed or lost, justifying a grace-period give-up.
func (t treeTopo) chainDamaged(r *Rank, m, anc int) bool {
	for p := m; p != anc; p = t.parent(p) {
		if r.Failed(t.member(p)) {
			return true
		}
	}
	return false
}

// firstLiveAncestor returns the position of the nearest live ancestor of
// p, or -1 when every ancestor including the root has crashed.
func (t treeTopo) firstLiveAncestor(r *Rank, p int) int {
	for p > 0 {
		p = t.parent(p)
		if !r.Failed(t.member(p)) {
			return p
		}
	}
	if r.Failed(t.member(0)) {
		return -1
	}
	return 0
}

// treeBundle is one up-phase message: the combined payload of a resolved
// subtree plus which members it covers (contributed data) and which it has
// resolved (covered or written off as lost).
type treeBundle struct {
	round    int64
	covered  []int // ranks whose data is folded into payload, ascending
	resolved []int // covered plus ranks concluded lost, ascending
	payload  []byte
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendRankList(b []byte, ranks []int) []byte {
	b = appendUvarint(b, uint64(len(ranks)))
	for _, r := range ranks {
		b = appendUvarint(b, uint64(r))
	}
	return b
}

type treeDecoder struct {
	buf []byte
	bad bool
}

func (d *treeDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *treeDecoder) rankList() []int {
	n := int(d.uvarint())
	if d.bad || n > len(d.buf) {
		d.bad = true
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int(d.uvarint()))
	}
	return out
}

func (d *treeDecoder) blob() []byte {
	n := int(d.uvarint())
	if d.bad || n > len(d.buf) {
		d.bad = true
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (b treeBundle) encode() []byte {
	out := appendUvarint(nil, uint64(b.round))
	out = appendRankList(out, b.covered)
	out = appendRankList(out, b.resolved)
	out = appendUvarint(out, uint64(len(b.payload)))
	return append(out, b.payload...)
}

func decodeTreeBundle(data []byte) (treeBundle, bool) {
	d := treeDecoder{buf: data}
	b := treeBundle{round: int64(d.uvarint())}
	b.covered = d.rankList()
	b.resolved = d.rankList()
	b.payload = d.blob()
	return b, !d.bad
}

// treeReport is one member's post-up-phase statement for the flat
// AllGather: which coverage its bundle carried (for the root: which
// coverage it actually folded).
type treeReport struct {
	covered []int
}

func (t treeReport) encode() []byte { return appendRankList(nil, t.covered) }

func decodeTreeReport(data []byte) (treeReport, bool) {
	d := treeDecoder{buf: data}
	rep := treeReport{covered: d.rankList()}
	return rep, !d.bad
}

// nextTreeRound increments and returns this rank's invocation counter for
// the given op tag.
func (r *Rank) nextTreeRound(tag int) int64 {
	if r.treeRound == nil {
		r.treeRound = make(map[int]int64)
	}
	r.treeRound[tag]++
	return r.treeRound[tag]
}

// recordTreeOp books one member's entry into a tree collective, mirroring
// the flat runCollective accounting (per-op count and byte series).
func (r *Rank) recordTreeOp(op string, size int64) {
	if reg := r.world.config.Metrics; reg != nil {
		reg.Counter("mpi.collective."+op, r.id).Inc()
		reg.Counter("mpi.collective."+op+".bytes", r.id).Add(size)
		reg.Counter("mpi.collective.bytes", r.id).Add(size)
	}
}

// recordTreeEdge books one tree-edge message at the sender's tree level
// (the root is level 0), giving the per-level latency/volume attribution
// the mergescale experiment reads.
func (r *Rank) recordTreeEdge(level int, size int64) {
	if reg := r.world.config.Metrics; reg != nil {
		series := fmt.Sprintf("mpi.tree.level%02d", level)
		reg.Counter(series+".msgs", r.id).Inc()
		reg.Counter(series+".bytes", r.id).Add(size)
	}
}

// treeTimeout is the crash-path polling interval, matching the engines'
// default failure-detection pace.
func (r *Rank) treeTimeout() float64 { return 250 * r.world.cost.NetLatency }

// TreeReduce folds every member's payload into one result at root using
// the user-supplied combiner, which MUST be associative and commutative —
// the fold order is deterministic but depends on the topology. The root
// receives the combined payload and the ascending list of members whose
// data actually contributed; every other member receives (nil, nil).
//
// Fault-free worlds run the pure k-ary message tree. Worlds with
// scheduled faults run the crash-aware protocol described in the package
// comment (members must then include every live rank). A crashed member's
// own contribution is lost — reported by its absence from contributors —
// but live members' contributions always survive, even when their
// forwarding ancestors die mid-protocol.
func (r *Rank) TreeReduce(root, fanout int, members []int, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	t := newTreeTopo(root, fanout, members)
	myPos, ok := t.posOf(r.id)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d called TreeReduce without being a member", r.id))
	}
	r.maybeCrash()
	r.recordTreeOp("treereduce", int64(len(data)))
	if r.id == root {
		if reg := r.world.config.Metrics; reg != nil {
			reg.Gauge("mpi.tree.fanout", r.id).Set(float64(fanout))
			reg.Gauge("mpi.tree.depth", r.id).Set(float64(t.maxDepth()))
		}
	}
	if t.size() == 1 {
		return data, []int{r.id}, nil
	}
	if !r.FaultsScheduled() {
		return r.treeReduceFast(t, myPos, data, combine)
	}
	return r.treeReduceCrash(t, myPos, data, combine)
}

// foldBundles combines own data with the stashed bundles in deterministic
// order (ascending minimum covered rank) and returns the fold plus the
// ascending union of covered ranks.
func foldBundles(self int, data []byte, stash []treeBundle, combine func(a, b []byte) []byte) ([]byte, []int) {
	sort.Slice(stash, func(i, j int) bool { return stash[i].covered[0] < stash[j].covered[0] })
	combined := data
	covered := []int{self}
	for _, b := range stash {
		combined = combine(combined, b.payload)
		covered = append(covered, b.covered...)
	}
	sort.Ints(covered)
	return combined, covered
}

// treeReduceFast is the fault-free up phase: exact blocking receives from
// every child, one bundle per edge.
func (r *Rank) treeReduceFast(t treeTopo, myPos int, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	round := r.nextTreeRound(tagTreeReduce)
	var stash []treeBundle
	for c, end := t.children(myPos); c < end; c++ {
		raw, _, _ := r.Recv(t.member(c), tagTreeReduce)
		b, ok := decodeTreeBundle(raw)
		if !ok {
			return nil, nil, fmt.Errorf("mpi: rank %d received corrupt tree bundle", r.id)
		}
		stash = append(stash, b)
	}
	combined, covered := foldBundles(r.id, data, stash, combine)
	if myPos == 0 {
		return combined, covered, nil
	}
	b := treeBundle{round: round, covered: covered, resolved: covered, payload: combined}
	raw := b.encode()
	r.recordTreeEdge(t.depth(myPos), int64(len(raw)))
	r.Send(t.member(t.parent(myPos)), tagTreeReduce, raw)
	return nil, nil, nil
}

// treeReduceCrash is the crash-aware up phase plus the AllGather/resend
// safety net.
func (r *Rank) treeReduceCrash(t treeTopo, myPos int, data []byte, combine func(a, b []byte) []byte) ([]byte, []int, error) {
	round := r.nextTreeRound(tagTreeReduce)
	timeout := r.treeTimeout()
	sub := t.subtree(myPos)
	resolved := make(map[int]bool, len(sub)) // by position
	resolved[myPos] = true
	coveredSet := make(map[int]bool) // by rank
	var stash []treeBundle

	// Collect until every subtree position is resolved. A position
	// resolves when a bundle covers or resolves its rank, when its whole
	// chain to us is dead, or — after `grace` empty timeouts — when its
	// chain is damaged by any crash (the resend round recovers the data if
	// it actually survived below the damage).
	const grace = 2
	idle := 0
	pending := func() []int {
		var out []int
		for _, p := range sub {
			if !resolved[p] {
				out = append(out, p)
			}
		}
		return out
	}
	for {
		rem := pending()
		if len(rem) == 0 {
			break
		}
		raw, _, _, err := r.RecvTimeout(AnySource, tagTreeReduce, timeout)
		if err != nil {
			// ErrTimeout (AnySource never reports a peer failure): apply
			// the ground-truth lost rules.
			idle++
			for _, p := range rem {
				if t.chainDead(r, p, myPos) || (idle > grace && t.chainDamaged(r, p, myPos)) {
					resolved[p] = true
				}
			}
			continue
		}
		b, ok := decodeTreeBundle(raw)
		if !ok {
			return nil, nil, fmt.Errorf("mpi: rank %d received corrupt tree bundle", r.id)
		}
		if b.round != round {
			continue // stale retransmission from an earlier invocation
		}
		dup := false
		for _, c := range b.covered {
			if coveredSet[c] {
				dup = true
				break
			}
		}
		if dup {
			continue // duplicate delivery along a rebuilt path
		}
		idle = 0
		stash = append(stash, b)
		for _, c := range b.covered {
			coveredSet[c] = true
			if p, ok := t.posOf(c); ok {
				resolved[p] = true
			}
		}
		for _, c := range b.resolved {
			if p, ok := t.posOf(c); ok {
				resolved[p] = true
			}
		}
	}

	combined, covered := foldBundles(r.id, data, stash, combine)
	resolvedRanks := make([]int, 0, len(sub))
	for _, p := range sub {
		if resolved[p] {
			resolvedRanks = append(resolvedRanks, t.member(p))
		}
	}
	sort.Ints(resolvedRanks)

	if myPos != 0 {
		// Route the bundle around dead ancestors: the subtree rebuild.
		if anc := t.firstLiveAncestor(r, myPos); anc >= 0 {
			b := treeBundle{round: round, covered: covered, resolved: resolvedRanks, payload: combined}
			raw := b.encode()
			r.recordTreeEdge(t.depth(myPos), int64(len(raw)))
			r.Send(t.member(anc), tagTreeReduce, raw)
		}
	}

	// Safety net: AllGather everyone's bundle coverage (the root reports
	// what it folded), derive the deterministic set of members whose
	// coverage never reached the root, and have exactly those re-send
	// directly to it.
	myReport := treeReport{covered: covered}
	reports := r.AllGather(myReport.encode())
	rootCovered := make(map[int]bool)
	rootRank := t.member(0)
	if rep, ok := decodeTreeReport(reports[rootRank]); ok {
		for _, c := range rep.covered {
			rootCovered[c] = true
		}
	}
	type holder struct {
		rank    int
		covered []int
	}
	var candidates []holder
	for p := 1; p < t.size(); p++ {
		m := t.member(p)
		if reports[m] == nil {
			continue // crashed before the safety net: nothing to recover
		}
		rep, ok := decodeTreeReport(reports[m])
		if !ok || len(rep.covered) == 0 {
			continue
		}
		delivered := true
		for _, c := range rep.covered {
			if !rootCovered[c] {
				delivered = false
				break
			}
		}
		if !delivered {
			candidates = append(candidates, holder{rank: m, covered: rep.covered})
		}
	}
	// Nested holders carry overlapping coverage (a lost forwarder's bundle
	// contains its children's); keep only the outermost of each chain.
	sort.Slice(candidates, func(i, j int) bool {
		if len(candidates[i].covered) != len(candidates[j].covered) {
			return len(candidates[i].covered) > len(candidates[j].covered)
		}
		return candidates[i].rank < candidates[j].rank
	})
	accepted := make(map[int]bool, len(rootCovered))
	for c := range rootCovered {
		accepted[c] = true
	}
	var resendFrom []int
	iResend := false
	for _, cand := range candidates {
		overlap := false
		for _, c := range cand.covered {
			if accepted[c] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, c := range cand.covered {
			accepted[c] = true
		}
		resendFrom = append(resendFrom, cand.rank)
		if cand.rank == r.id {
			iResend = true
		}
	}
	sort.Ints(resendFrom)

	if myPos != 0 {
		if iResend {
			b := treeBundle{round: round, covered: covered, resolved: resolvedRanks, payload: combined}
			raw := b.encode()
			r.recordTreeEdge(t.depth(myPos), int64(len(raw)))
			r.Send(rootRank, tagTreeReduce, raw)
		}
		return nil, nil, nil
	}

	for _, from := range resendFrom {
		for {
			raw, _, _, err := r.RecvTimeout(from, tagTreeReduce, timeout)
			if err == nil {
				b, ok := decodeTreeBundle(raw)
				if !ok || b.round != round {
					continue
				}
				stash = append(stash, b)
				break
			}
			if r.Failed(from) {
				break // crashed before re-sending: its data is gone
			}
		}
	}
	// Re-fold everything (base bundles plus recovered re-sends) in the
	// deterministic order, so the result is independent of arrival timing.
	combined, covered = foldBundles(r.id, data, stash, combine)
	return combined, covered, nil
}

// TreeGather collects every member's payload at root via the k-ary tree:
// bundles concatenate (rank, blob) lists instead of streaming N messages
// through the root link. The root receives a slice indexed by RANK (nil
// for non-members and for members whose contribution died with a crashed
// forwarder) plus the contributors list; everyone else receives nil.
func (r *Rank) TreeGather(root, fanout int, members []int, data []byte) ([][]byte, []int, error) {
	payload := appendUvarint(nil, uint64(r.id))
	payload = appendUvarint(payload, uint64(len(data)))
	payload = append(payload, data...)
	combined, contributors, err := r.TreeReduce(root, fanout, members, payload, mergeLabeledBlobs)
	if err != nil || r.id != root {
		return nil, nil, err
	}
	out := make([][]byte, r.Size())
	d := treeDecoder{buf: combined}
	for len(d.buf) > 0 && !d.bad {
		rank := int(d.uvarint())
		blob := d.blob()
		if d.bad {
			return nil, nil, fmt.Errorf("mpi: corrupt tree gather payload at root")
		}
		if rank >= 0 && rank < len(out) {
			out[rank] = blob
		}
	}
	return out, contributors, nil
}

// mergeLabeledBlobs combines two sorted (rank, blob) lists into one sorted
// list — the associative, commutative combiner behind TreeGather.
func mergeLabeledBlobs(a, b []byte) []byte {
	type entry struct {
		rank int
		blob []byte
	}
	decode := func(buf []byte) []entry {
		var out []entry
		d := treeDecoder{buf: buf}
		for len(d.buf) > 0 && !d.bad {
			rank := int(d.uvarint())
			blob := d.blob()
			if d.bad {
				break
			}
			out = append(out, entry{rank, blob})
		}
		return out
	}
	all := append(decode(a), decode(b)...)
	sort.Slice(all, func(i, j int) bool { return all[i].rank < all[j].rank })
	var out []byte
	for _, e := range all {
		out = appendUvarint(out, uint64(e.rank))
		out = appendUvarint(out, uint64(len(e.blob)))
		out = append(out, e.blob...)
	}
	return out
}

// TreeBcast distributes root's payload to every member along the k-ary
// tree and returns it everywhere. Fault-free worlds forward hop by hop
// (each edge pays its own latency and bandwidth); worlds with scheduled
// faults delegate to the crash-safe flat Bcast, which completes over the
// survivors (members must then include every live rank).
func (r *Rank) TreeBcast(root, fanout int, members []int, data []byte) []byte {
	t := newTreeTopo(root, fanout, members)
	myPos, ok := t.posOf(r.id)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d called TreeBcast without being a member", r.id))
	}
	r.maybeCrash()
	var own int64
	if r.id == root {
		own = int64(len(data))
	}
	r.recordTreeOp("treebcast", own)
	if t.size() == 1 {
		return data
	}
	if r.FaultsScheduled() {
		var payload []byte
		if r.id == root {
			payload = data
		}
		return r.Bcast(root, payload)
	}
	payload := data
	if myPos != 0 {
		raw, _, _ := r.Recv(t.member(t.parent(myPos)), tagTreeBcast)
		payload = raw
	}
	for c, end := t.children(myPos); c < end; c++ {
		r.recordTreeEdge(t.depth(c), int64(len(payload)))
		r.Send(t.member(c), tagTreeBcast, payload)
	}
	return payload
}

// TreeBarrier synchronizes the members with an empty up-phase reduction
// followed by an empty broadcast — two tree traversals instead of the flat
// barrier's analytic cost. Under fault schedules it delegates to the flat
// Barrier (members must then include every live rank).
func (r *Rank) TreeBarrier(root, fanout int, members []int) {
	r.maybeCrash()
	r.recordTreeOp("treebarrier", 0)
	if r.FaultsScheduled() {
		r.Barrier()
		return
	}
	t := newTreeTopo(root, fanout, members)
	myPos, ok := t.posOf(r.id)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d called TreeBarrier without being a member", r.id))
	}
	if t.size() == 1 {
		return
	}
	none := func(a, b []byte) []byte { return nil }
	if _, _, err := r.treeReduceFast(t, myPos, nil, none); err != nil {
		panic("mpi: tree barrier reduce failed: " + err.Error())
	}
	payload := []byte(nil)
	if myPos != 0 {
		payload, _, _ = r.Recv(t.member(t.parent(myPos)), tagTreeBcast)
	}
	for c, end := t.children(myPos); c < end; c++ {
		r.Send(t.member(c), tagTreeBcast, payload)
	}
}
