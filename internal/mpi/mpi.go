// Package mpi simulates an MPI runtime for the parallel BLAST engines:
// ranks are goroutines, messages are real byte payloads, and time is
// virtual, driven by a simtime.CostModel.
//
// # Execution model
//
// The world runs as a sequential discrete-event simulation: at any moment
// exactly one rank executes (it holds the scheduler token). A rank runs
// until it blocks — on a receive with no matching message, or inside a
// collective — and then the scheduler hands the token to the eligible rank
// with the smallest virtual time, ties to the lowest rank id. This rule
// makes runs fully deterministic (identical clocks, identical message
// orders) while still exercising the real concurrent message-passing
// structure of the engines:
//
//   - a rank that is ready to run is eligible at its own clock;
//   - a rank blocked on a receive is eligible at max(clock, earliest
//     matching arrival), and ineligible while no match is queued;
//   - a rank inside a collective is ineligible until the last participant
//     arrives, which releases everyone at the collective's completion time.
//
// Because the scheduler always advances the globally earliest event, any
// message sent in the future carries an arrival no earlier than the event
// being executed, so receive choices (including AnySource) are exact.
//
// # Scheduler
//
// Eligible ranks wait in an indexed min-heap keyed by (eligible time, rank
// id), so a handoff is O(log N). The key is filed when a rank parks — as
// ready (its clock), or blocked on a receive (the rule above, including a
// RecvTimeout deadline) — lowered when a Send lands a matching message in
// a blocked receiver's inbox, and filed for every participant when a
// collective releases. Keys never need raising because of one invariant:
// a parked rank's clock never changes — only its own goroutine advances
// it, and only while holding the token. Each rank waits on its own
// condition variable, so a handoff wakes exactly the chosen goroutine; an
// abort wakes them all.
//
// # Cost model
//
// Send charges the sender size/bandwidth (its NIC is busy), and the message
// arrives one latency later. Receive waits for arrival, then charges the
// receiver size/bandwidth. A master that handles per-item request/reply
// traffic therefore serializes on its own clock — the exact phenomenon the
// paper's result-merging analysis is about.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"parblast/internal/metrics"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
)

// AnySource matches a message from any rank; AnyTag matches any tag.
const (
	AnySource = -1
	AnyTag    = -1
)

type rankState int

const (
	stateReady rankState = iota
	stateRunning
	stateBlockedRecv
	stateBlockedColl
	stateDone
)

func (s rankState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlockedRecv:
		return "blocked-recv"
	case stateBlockedColl:
		return "blocked-collective"
	case stateDone:
		return "done"
	}
	return "?"
}

type message struct {
	src, tag int
	data     []byte
	arrival  float64
	seq      int64
	// Trace-context sideband: the sender's query-batch id and the virtual
	// time the payload left its NIC. These ride OUTSIDE data so the
	// bandwidth charge (len(data)/NetBandwidth) is byte-identical with
	// tracing on or off.
	batch  int
	sendAt float64
}

type collective struct {
	op        string
	datas     [][]byte
	count     int
	releaseFn func(datas [][]byte, maxClock float64) float64
	releaseAt float64
	done      bool
	// Per-rank causal context for flow emission: entry clock, trace batch,
	// and whether the rank joined at all (crashed ranks never do).
	entries []float64
	batches []int
	joined  []bool
}

// FaultKind classifies a scheduled fault.
type FaultKind int

const (
	// FaultCrash fail-stops the rank: at the first MPI operation after its
	// clock reaches At, the rank dies. Pending messages to it are dropped,
	// collectives complete over the surviving ranks, and peers observe the
	// failure through RecvTimeout/Failed or a crash-aware abort.
	FaultCrash FaultKind = iota
	// FaultDegrade slows the rank's compute by the Slow factor from At on
	// (a sick-but-alive node: thermal throttling, a competing job).
	FaultDegrade
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDegrade:
		return "degrade"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault schedules one deterministic fault. Faults are part of the Config,
// so a given schedule always reproduces the same failure history.
type Fault struct {
	// Rank is the victim.
	Rank int
	// At is the virtual time the fault takes effect. A crash fires at the
	// victim's first MPI operation at or after At.
	At float64
	// Kind selects crash vs degrade.
	Kind FaultKind
	// Slow is the compute slowdown factor for FaultDegrade (2 = half
	// speed). Ignored for crashes.
	Slow float64
}

// ErrTimeout is returned by RecvTimeout when the virtual-time deadline
// expires before a matching message arrives.
var ErrTimeout = errors.New("mpi: receive timed out")

// ErrRankFailed is returned (wrapped) by RecvTimeout when the awaited
// source rank has crashed. Test with errors.Is.
var ErrRankFailed = errors.New("mpi: peer rank failed")

// crashPanic unwinds a crashing rank's goroutine; it is not an error.
type crashPanic struct{ rank int }

// World is the shared state of one simulated MPI job.
type World struct {
	n      int
	cost   simtime.CostModel
	config Config

	mu   sync.Mutex
	wake []sync.Cond // per rank, on mu: signalled when the rank gets the token

	ranks        []*Rank
	states       []rankState
	ready        readyHeap // eligible parked ranks
	recvSrc      []int     // per rank, when blocked on recv
	recvTag      []int
	recvDeadline []float64 // virtual-time deadline, +Inf for plain Recv
	inbox        [][]message
	coll         *collective
	collOf       []*collective
	seq          int64
	active       int
	parked       int // ranks that have parked for their first grant
	live         int // ranks that have not crashed
	doneCount    int
	aborted      bool
	abortMsg     string
	firstErr     error

	// Fault plane: per-rank schedule (immutable after setup) and outcome.
	crashAt     []float64 // scheduled crash time, +Inf = never
	degradeAt   []float64 // scheduled degrade time, +Inf = never
	degradeSlow []float64
	crashed     []bool
	crashTime   []float64 // actual crash time (first op at/after crashAt)
}

// Rank is one simulated MPI process.
type Rank struct {
	id           int
	world        *World
	clock        *simtime.Clock
	degradeFired bool // OnFault for this rank's degrade already reported
	// treeRound numbers this rank's tree-collective invocations per op tag,
	// so the crash-aware protocol can drop stale retransmissions from
	// earlier rounds. Only touched by the rank's own goroutine.
	treeRound map[int]int64
	// traceBatch is the rank's current query-batch trace context (-1 =
	// none). Stamped on every outgoing envelope; adopted from incoming
	// envelopes at delivery, so context propagates causally across ranks.
	// Only touched by the rank's own goroutine.
	traceBatch int
}

type abortPanic struct{ msg string }

// Flow kinds reported through Config.OnFlow. The strings match the trace
// package's flow constants (mpi deliberately does not import trace — the
// façade adapts, mirroring the Observer/OnFault wiring).
const (
	FlowMsg     = "msg"     // point-to-point message delivery
	FlowContrib = "contrib" // collective participant entry → fold site
	FlowRelease = "release" // fold site → participant resume point
)

// FlowEvent is one causal edge between two rank timelines, reported at
// delivery (or collective release) time. ID is unique and deterministic
// within a run (drawn from the world's message sequence). Batch is the
// sender's query-batch trace context (-1 = none). SendAt/RecvAt are
// virtual times; emitting a flow never advances any clock.
type FlowEvent struct {
	Kind   string
	Op     string
	ID     int64
	Batch  int
	Src    int
	Dst    int
	Bytes  int
	SendAt float64
	RecvAt float64
}

// Config bundles a cost model with optional per-rank heterogeneity.
type Config struct {
	Cost simtime.CostModel
	// Speeds scales each rank's compute cost: 1 is the baseline node,
	// 2 runs compute twice as slowly. nil or missing entries mean 1.
	// Models the heterogeneous clusters the paper's §5 load-balancing
	// discussion targets.
	Speeds []float64
	// Observer, when non-nil, returns a per-rank phase-span callback that
	// is installed on each rank's clock (see internal/trace).
	Observer func(rank int) func(phase string, from, to float64)
	// Comm, when non-nil, accumulates per-rank communication volume —
	// the metric behind the paper's §3.2 message-volume-reduction claim.
	Comm *CommStats
	// Faults schedules deterministic rank failures (see Fault). At most one
	// crash and one degrade per rank.
	Faults []Fault
	// OnFault, when non-nil, is called once per fired fault (from the
	// victim's goroutine, outside the world lock) — the hook the trace
	// layer uses to put fault marks on the Gantt timeline.
	OnFault func(rank int, kind FaultKind, at float64)
	// OnFlow, when non-nil, receives one FlowEvent per causal edge:
	// point-to-point deliveries (from the receiver's goroutine, outside the
	// world lock) and collective contribution/release edges (from the
	// completing rank's goroutine, UNDER the world lock — the callback must
	// not call back into mpi). Flow reporting never advances virtual
	// clocks, so enabling it cannot change any simulated time.
	OnFlow func(FlowEvent)
	// Metrics, when non-nil, receives the run's unified telemetry: per-tag
	// message counts and bytes, collective-operation counts, and
	// receive-timeout waits, all labelled by sending/acting rank. Metrics
	// never advance virtual clocks, so enabling them cannot change any
	// reported phase time.
	Metrics *metrics.Registry
}

// ShuffleTagBase splits the tag space: tags at or above it belong to the
// collective-I/O data shuffle (internal/mpiio), below it to the engines'
// result-merging protocols. The split matters for measurement: the paper's
// §3.2 claim is about PROTOCOL volume (what flows through the master during
// merging), while shuffle volume is §3.3's deliberate network-for-disk
// trade.
const ShuffleTagBase = 1 << 20

// CollTagBase opens a third tag region, below the shuffle space, for the
// point-to-point messages that implement TREE collectives (TreeReduce,
// TreeGather, tree Bcast). Their bytes are collective-operation traffic —
// synchronization and aggregation, not merging protocol — so CommStats
// books them in the collective bucket even though they travel as ordinary
// sends.
const CollTagBase = 1 << 19

// CommStats tallies communication per rank, split into protocol traffic,
// collective-I/O shuffle traffic, and collective-operation payloads
// (Barrier/Bcast/Gather/AllGather contributions, plus the point-to-point
// hops of the tree collectives). The split keeps the paper's §3.2
// protocol-volume metric clean: collective synchronization is neither
// merging protocol nor shuffle data. Safe for concurrent use.
type CommStats struct {
	mu         sync.Mutex
	protocol   []int64
	shuffle    []int64
	collective []int64
	messages   []int64
}

// NewCommStats sizes a collector for n ranks.
func NewCommStats(n int) *CommStats {
	return &CommStats{
		protocol:   make([]int64, n),
		shuffle:    make([]int64, n),
		collective: make([]int64, n),
		messages:   make([]int64, n),
	}
}

func (c *CommStats) add(rank, tag int, bytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if rank < len(c.protocol) {
		switch {
		case tag >= ShuffleTagBase:
			c.shuffle[rank] += bytes
		case tag >= CollTagBase:
			c.collective[rank] += bytes
		default:
			c.protocol[rank] += bytes
		}
		c.messages[rank]++
	}
	c.mu.Unlock()
}

// addCollective books a collective-operation contribution in its own
// bucket, so Barrier/AllGather payloads never pollute the protocol metric.
func (c *CommStats) addCollective(rank int, bytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if rank < len(c.collective) {
		c.collective[rank] += bytes
		c.messages[rank]++
	}
	c.mu.Unlock()
}

// Rank returns one rank's sent protocol bytes, shuffle bytes, collective
// bytes, and message count.
func (c *CommStats) Rank(rank int) (protocol, shuffle, collective, messages int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rank >= len(c.protocol) {
		return 0, 0, 0, 0
	}
	return c.protocol[rank], c.shuffle[rank], c.collective[rank], c.messages[rank]
}

// Totals sums across ranks.
func (c *CommStats) Totals() (protocol, shuffle, collective, messages int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.protocol {
		protocol += c.protocol[i]
		shuffle += c.shuffle[i]
		collective += c.collective[i]
		messages += c.messages[i]
	}
	return protocol, shuffle, collective, messages
}

func (c Config) speed(rank int) float64 {
	if rank < len(c.Speeds) && c.Speeds[rank] > 0 {
		return c.Speeds[rank]
	}
	return 1
}

// Run executes body on n ranks and returns their clocks. It returns an
// error if any body returns an error, panics, or the job deadlocks.
func Run(n int, cost simtime.CostModel, body func(*Rank) error) ([]*simtime.Clock, error) {
	return RunConfig(n, Config{Cost: cost}, body)
}

// RunConfig is Run with per-rank heterogeneity.
func RunConfig(n int, cfg Config, body func(*Rank) error) ([]*simtime.Clock, error) {
	cost := cfg.Cost
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", n)
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	for i, s := range cfg.Speeds {
		if s < 0 {
			return nil, fmt.Errorf("mpi: negative speed factor %g for rank %d", s, i)
		}
	}
	w := &World{
		n:            n,
		cost:         cost,
		config:       cfg,
		wake:         make([]sync.Cond, n),
		states:       make([]rankState, n),
		ready:        newReadyHeap(n),
		recvSrc:      make([]int, n),
		recvTag:      make([]int, n),
		recvDeadline: make([]float64, n),
		inbox:        make([][]message, n),
		collOf:       make([]*collective, n),
		active:       -1,
		live:         n,
		crashAt:      make([]float64, n),
		degradeAt:    make([]float64, n),
		degradeSlow:  make([]float64, n),
		crashed:      make([]bool, n),
		crashTime:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		w.wake[i].L = &w.mu
		w.recvDeadline[i] = math.Inf(1)
		w.crashAt[i] = math.Inf(1)
		w.degradeAt[i] = math.Inf(1)
		w.degradeSlow[i] = 1
		w.crashTime[i] = math.Inf(1)
	}
	for _, f := range cfg.Faults {
		if f.Rank < 0 || f.Rank >= n {
			return nil, fmt.Errorf("mpi: fault targets invalid rank %d (world size %d)", f.Rank, n)
		}
		if f.At < 0 || math.IsNaN(f.At) {
			return nil, fmt.Errorf("mpi: fault for rank %d has invalid time %g", f.Rank, f.At)
		}
		switch f.Kind {
		case FaultCrash:
			if !math.IsInf(w.crashAt[f.Rank], 1) {
				return nil, fmt.Errorf("mpi: rank %d has more than one scheduled crash", f.Rank)
			}
			w.crashAt[f.Rank] = f.At
		case FaultDegrade:
			if f.Slow <= 0 {
				return nil, fmt.Errorf("mpi: degrade for rank %d needs Slow > 0, got %g", f.Rank, f.Slow)
			}
			if !math.IsInf(w.degradeAt[f.Rank], 1) {
				return nil, fmt.Errorf("mpi: rank %d has more than one scheduled degrade", f.Rank)
			}
			w.degradeAt[f.Rank] = f.At
			w.degradeSlow[f.Rank] = f.Slow
		default:
			return nil, fmt.Errorf("mpi: unknown fault kind %d for rank %d", int(f.Kind), f.Rank)
		}
	}
	clocks := make([]*simtime.Clock, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		r := &Rank{id: i, world: w, clock: simtime.NewClock(), traceBatch: -1}
		if cfg.Observer != nil {
			r.clock.SetObserver(cfg.Observer(i))
		}
		clocks[i] = r.clock
		w.ranks = append(w.ranks, r)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					switch rec.(type) {
					case abortPanic, crashPanic:
						// Aborts carry their message in the world; a
						// crash is a simulated fault, not a Go error.
					default:
						w.mu.Lock()
						if w.firstErr == nil {
							w.firstErr = fmt.Errorf("mpi: rank %d panicked: %v", r.id, rec)
						}
						w.mu.Unlock()
					}
				}
				w.finishRank(r.id)
			}()
			r.waitActiveInitial()
			if err := body(r); err != nil {
				w.mu.Lock()
				if w.firstErr == nil {
					w.firstErr = fmt.Errorf("mpi: rank %d: %w", r.id, err)
				}
				w.mu.Unlock()
			}
		}(w.ranks[i])
	}
	wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.firstErr != nil {
		return clocks, w.firstErr
	}
	if w.aborted {
		return clocks, fmt.Errorf("mpi: %s", w.abortMsg)
	}
	return clocks, nil
}

// waitActiveInitial parks the rank as ready and waits for its first grant.
// The last rank to park hands out the first token.
func (r *Rank) waitActiveInitial() {
	w := r.world
	w.mu.Lock()
	w.states[r.id] = stateReady
	w.ready.push(r.id, r.clock.Now())
	if w.parked++; w.parked == w.n {
		w.scheduleLocked()
	}
	r.awaitTokenLocked()
	w.mu.Unlock()
}

// awaitTokenLocked sleeps until the scheduler grants this rank the token,
// then marks it running. On abort it unwinds the goroutine instead. Caller
// holds w.mu (released on the abort path only).
func (r *Rank) awaitTokenLocked() {
	w := r.world
	for w.active != r.id && !w.aborted {
		w.wake[r.id].Wait()
	}
	if w.aborted {
		w.mu.Unlock()
		panic(abortPanic{w.abortMsg})
	}
	w.states[r.id] = stateRunning
}

// finishRank marks the rank done and hands the token onward.
func (w *World) finishRank(id int) {
	w.mu.Lock()
	w.states[id] = stateDone
	w.doneCount++
	if w.active == id {
		w.active = -1
		w.scheduleLocked()
	}
	w.mu.Unlock()
}

// scheduleLocked grants the token to the eligible rank with the smallest
// (eligible time, rank id) and wakes that rank alone. Caller holds w.mu and
// has already parked itself.
func (w *World) scheduleLocked() {
	if w.aborted {
		return // abortLocked has already woken every rank
	}
	next := w.ready.pop()
	if next < 0 {
		if w.doneCount == w.n {
			return // clean finish
		}
		if w.firstErr != nil {
			// A rank died with an error; release everyone else.
			w.abortLocked(fmt.Sprintf("aborted after error: %v", w.firstErr))
			return
		}
		// A stall with dead ranks is not a protocol deadlock: name the
		// failure so callers see WHY their peers never answered.
		if dump := w.crashDumpLocked(); dump != "" {
			w.abortLocked("unrecovered rank failure (" + dump + "): " + w.stateDumpLocked())
			return
		}
		w.abortLocked("deadlock: " + w.stateDumpLocked())
		return
	}
	w.active = next
	w.wake[next].Signal()
}

func (w *World) abortLocked(msg string) {
	w.aborted = true
	w.abortMsg = msg
	for i := range w.wake {
		w.wake[i].Signal()
	}
}

// recvEligibleLocked is when rank i, blocked on a receive, becomes
// eligible: max(clock, earliest matching arrival), pulled in to
// max(clock, deadline) by a RecvTimeout deadline; +Inf while neither
// exists.
func (w *World) recvEligibleLocked(i int) float64 {
	t := math.Inf(1)
	if k := w.earliestMatchLocked(i); k >= 0 {
		t = math.Max(w.ranks[i].clock.Now(), w.inbox[i][k].arrival)
	}
	// A receive with a deadline is always eligible: it wakes at the
	// earlier of the match and the timeout.
	if dl := w.recvDeadline[i]; dl < t {
		t = math.Max(w.ranks[i].clock.Now(), dl)
	}
	return t
}

// crashDumpLocked lists crashed ranks, or "" when none crashed.
func (w *World) crashDumpLocked() string {
	var b strings.Builder
	for i := 0; i < w.n; i++ {
		if w.crashed[i] {
			if b.Len() > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "rank %d crashed at t=%.6f", i, w.crashTime[i])
		}
	}
	return b.String()
}

func (w *World) stateDumpLocked() string {
	var b strings.Builder
	for i := 0; i < w.n; i++ {
		fmt.Fprintf(&b, "rank %d %s t=%.3f", i, w.states[i], w.ranks[i].clock.Now())
		if w.states[i] == stateBlockedRecv {
			fmt.Fprintf(&b, " (waiting src=%d tag=%d, %d queued)",
				w.recvSrc[i], w.recvTag[i], len(w.inbox[i]))
		}
		b.WriteString("; ")
	}
	return b.String()
}

// matches reports whether m satisfies a (src, tag) receive filter.
func (m *message) matches(src, tag int) bool {
	return (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag)
}

// earliestMatchLocked returns the inbox index of the queued message for
// rank i's pending receive with the smallest (arrival, seq), or -1.
func (w *World) earliestMatchLocked(i int) int {
	src, tag := w.recvSrc[i], w.recvTag[i]
	q := w.inbox[i]
	best := -1
	for k := range q {
		if q[k].matches(src, tag) {
			if best < 0 || q[k].arrival < q[best].arrival ||
				(q[k].arrival == q[best].arrival && q[k].seq < q[best].seq) {
				best = k
			}
		}
	}
	return best
}

// takeMessageLocked removes and returns message k of rank i's inbox.
func (w *World) takeMessageLocked(i, k int) message {
	q := w.inbox[i]
	m := q[k]
	w.inbox[i] = append(q[:k], q[k+1:]...)
	return m
}

// block parks the calling (active) rank in the given state, runs the
// scheduler, and returns when the rank is granted the token again.
// Caller holds w.mu.
func (r *Rank) blockLocked(s rankState) {
	w := r.world
	w.states[r.id] = s
	switch s {
	case stateReady:
		w.ready.push(r.id, r.clock.Now())
	case stateBlockedRecv:
		if t := w.recvEligibleLocked(r.id); !math.IsInf(t, 1) {
			w.ready.push(r.id, t)
		}
	}
	w.active = -1
	w.scheduleLocked()
	r.awaitTokenLocked()
}

// maybeCrash fires this rank's scheduled crash if its clock has reached
// the fault time. Called at the entry of every MPI operation, so a crash
// always happens at an operation boundary while the rank holds the
// scheduler token — which keeps the failure history deterministic. A
// crashing rank completes any collective it strands (the survivors don't
// wait for the dead) and unwinds its goroutine via crashPanic.
func (r *Rank) maybeCrash() {
	w := r.world
	if r.clock.Now() < w.crashAt[r.id] {
		return
	}
	now := r.clock.Now()
	w.mu.Lock()
	if w.crashed[r.id] { // already unwinding
		w.mu.Unlock()
		panic(crashPanic{r.id})
	}
	w.crashed[r.id] = true
	w.crashTime[r.id] = now
	w.live--
	w.maybeCompleteCollectiveLocked()
	w.mu.Unlock()
	if w.config.OnFault != nil {
		w.config.OnFault(r.id, FaultCrash, now)
	}
	panic(crashPanic{r.id})
}

// maybeCompleteCollectiveLocked finishes an in-progress collective when
// every live rank has already joined — the path a crash takes so survivors
// are not stranded waiting for the dead.
func (w *World) maybeCompleteCollectiveLocked() {
	if c := w.coll; c != nil && c.count >= w.live {
		w.completeCollectiveLocked(c)
	}
}

// completeCollectiveLocked computes the release time over LIVE participants
// and readies every rank parked in c.
func (w *World) completeCollectiveLocked(c *collective) {
	maxClock := 0.0
	for i, rk := range w.ranks {
		if w.crashed[i] {
			continue
		}
		if t := rk.clock.Now(); t > maxClock {
			maxClock = t
		}
	}
	c.releaseAt = c.releaseFn(c.datas, maxClock)
	c.done = true
	w.coll = nil
	for i := 0; i < w.n; i++ {
		if w.states[i] == stateBlockedColl && w.collOf[i] == c {
			w.states[i] = stateReady
			w.ready.push(i, w.ranks[i].clock.Now())
		}
	}
	w.emitCollectiveFlowsLocked(c)
}

// emitCollectiveFlowsLocked reports the causal edges of one completed
// collective: each participant's entry flows INTO the fold site (the
// last-arriving live rank, ties to the lowest id — the rank whose entry
// clock determined the release), and the fold site flows back OUT to each
// participant's resume point at releaseAt. Caller holds w.mu; the OnFlow
// callback therefore must not call back into mpi. Emission never touches
// any clock.
func (w *World) emitCollectiveFlowsLocked(c *collective) {
	onFlow := w.config.OnFlow
	if onFlow == nil {
		return
	}
	releaser := -1
	for i := 0; i < w.n; i++ {
		if !c.joined[i] || w.crashed[i] {
			continue
		}
		if releaser < 0 || c.entries[i] > c.entries[releaser] {
			releaser = i
		}
	}
	if releaser < 0 {
		return
	}
	for i := 0; i < w.n; i++ {
		if !c.joined[i] || w.crashed[i] || i == releaser {
			continue
		}
		w.seq++
		onFlow(FlowEvent{
			Kind:   FlowContrib,
			Op:     c.op,
			ID:     w.seq,
			Batch:  c.batches[i],
			Src:    i,
			Dst:    releaser,
			Bytes:  len(c.datas[i]),
			SendAt: c.entries[i],
			RecvAt: c.releaseAt,
		})
		w.seq++
		onFlow(FlowEvent{
			Kind:   FlowRelease,
			Op:     c.op,
			ID:     w.seq,
			Batch:  c.batches[releaser],
			Src:    releaser,
			Dst:    i,
			Bytes:  0,
			SendAt: c.entries[releaser],
			RecvAt: c.releaseAt,
		})
	}
}

// Failed reports whether the given rank has crashed. This is the simulated
// failure detector's ground truth: detection protocols use timeouts to
// decide WHEN to ask, but the answer itself is never wrong.
func (r *Rank) Failed(rank int) bool {
	w := r.world
	w.mu.Lock()
	defer w.mu.Unlock()
	return rank >= 0 && rank < w.n && w.crashed[rank]
}

// Live returns the ids of all ranks that have not crashed, ascending.
func (r *Rank) Live() []int {
	w := r.world
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]int, 0, w.n)
	for i := 0; i < w.n; i++ {
		if !w.crashed[i] {
			out = append(out, i)
		}
	}
	return out
}

// CrashTime returns when the given rank crashed, or +Inf if it is alive.
func (r *Rank) CrashTime(rank int) float64 {
	w := r.world
	w.mu.Lock()
	defer w.mu.Unlock()
	if rank < 0 || rank >= w.n || !w.crashed[rank] {
		return math.Inf(1)
	}
	return w.crashTime[rank]
}

// ID returns the rank number (0-based).
func (r *Rank) ID() int { return r.id }

// Metrics exposes the world's telemetry registry (nil when the run is not
// instrumented; the registry's instruments are nil-safe, so callers chain
// r.Metrics().Counter(...).Inc() unconditionally).
func (r *Rank) Metrics() *metrics.Registry { return r.world.config.Metrics }

// SetTraceBatch sets the rank's query-batch trace context (-1 clears it).
// Subsequent sends and collective entries are stamped with it; delivery of
// a stamped envelope propagates the context to the receiver. Purely
// observational: never advances any clock.
func (r *Rank) SetTraceBatch(batch int) { r.traceBatch = batch }

// TraceBatch returns the rank's current query-batch trace context (-1 =
// none) — either set locally or adopted from the last stamped delivery.
func (r *Rank) TraceBatch() int { return r.traceBatch }

// flowOp names a message tag for flow edges: protocol tags keep their
// number, the shuffle and tree-collective tag spaces collapse.
func flowOp(tag int) string {
	if tag >= ShuffleTagBase {
		return "shuffle"
	}
	if tag >= CollTagBase {
		return "coll"
	}
	return fmt.Sprintf("tag%02d", tag)
}

// deliverFlow adopts the envelope's trace context and reports the causal
// edge for one delivered message. Called from the receiver's goroutine
// after the delivery clock charges, outside the world lock.
//
// Adoption is monotone: a delivered envelope only advances the receiver's
// batch context, never rewinds it. Batch ids are assigned in admission
// order, so in a stream a late-arriving batch-N message (a straggler
// worker's results, a retransmitted selection) delivered after the rank
// moved on to batch N+1 must not drag the context backward — that would
// stamp every subsequent send from this rank with the stale id. The flow
// EDGE below still reports the envelope's own batch, so per-batch flow
// splits stay exact.
func (r *Rank) deliverFlow(m message) {
	if m.batch > r.traceBatch {
		r.traceBatch = m.batch
	}
	onFlow := r.world.config.OnFlow
	if onFlow == nil {
		return
	}
	onFlow(FlowEvent{
		Kind:   FlowMsg,
		Op:     flowOp(m.tag),
		ID:     m.seq,
		Batch:  m.batch,
		Src:    m.src,
		Dst:    r.id,
		Bytes:  len(m.data),
		SendAt: m.sendAt,
		RecvAt: r.clock.Now(),
	})
}

// tagSeries maps a message tag to its metric series stem. Protocol tags
// are small engine constants and keep their number; the collective-I/O
// shuffle space collapses into one series (internal/mpiio does its own
// finer accounting), and the tree-collective space into another (the tree
// code books per-level series itself).
func tagSeries(tag int) string {
	if tag >= ShuffleTagBase {
		return "mpi.send.shuffle"
	}
	if tag >= CollTagBase {
		return "mpi.send.collective"
	}
	return fmt.Sprintf("mpi.send.tag%02d", tag)
}

// recordSend books one outgoing message in the telemetry registry.
func (r *Rank) recordSend(tag int, size int64) {
	reg := r.world.config.Metrics
	if reg == nil {
		return
	}
	series := tagSeries(tag)
	reg.Counter(series+".msgs", r.id).Inc()
	reg.Counter(series+".bytes", r.id).Add(size)
	reg.Histogram("mpi.msg_bytes", r.id, metrics.SizeBuckets()).Observe(float64(size))
}

// Size returns the world size.
func (r *Rank) Size() int { return r.world.n }

// Clock exposes the rank's virtual clock.
func (r *Rank) Clock() *simtime.Clock { return r.clock }

// Cost exposes the world's cost model.
func (r *Rank) Cost() simtime.CostModel { return r.world.cost }

// SetPhase switches the phase bucket charged for subsequent time.
func (r *Rank) SetPhase(phase string) { r.clock.SetPhase(phase) }

// Advance charges d virtual seconds of local work.
func (r *Rank) Advance(d float64) {
	r.maybeCrash()
	r.clock.Advance(d)
}

// Yield hands the scheduler token to the rank with the smallest virtual
// clock (possibly this one again). Long compute/I-O loops that never block
// should yield between steps so that shared-resource accesses (storage
// channel pools) are issued in virtual-time order across ranks; without
// yields a rank would run its whole phase in one token hold and other
// ranks' earlier accesses would falsely queue behind its later ones.
func (r *Rank) Yield() {
	r.maybeCrash()
	w := r.world
	w.mu.Lock()
	r.blockLocked(stateReady)
	w.mu.Unlock()
}

// Compute charges work units at the model's search-unit cost, scaled by
// the rank's node-speed factor and any active degrade fault.
func (r *Rank) Compute(units int64) {
	r.maybeCrash()
	r.clock.Advance(float64(units) * r.world.cost.SearchUnitCost * r.effSpeed())
}

// effSpeed is the rank's current compute-cost factor: the configured node
// speed, multiplied by the degrade slowdown once its fault time passes.
func (r *Rank) effSpeed() float64 {
	w := r.world
	s := w.config.speed(r.id)
	if r.clock.Now() >= w.degradeAt[r.id] {
		if !r.degradeFired {
			r.degradeFired = true
			if w.config.OnFault != nil {
				w.config.OnFault(r.id, FaultDegrade, r.clock.Now())
			}
		}
		s *= w.degradeSlow[r.id]
	}
	return s
}

// Speed reports the rank's node-speed factor (1 = baseline).
func (r *Rank) Speed() float64 { return r.world.config.speed(r.id) }

// FormatCost charges the per-byte report-rendering cost for n bytes.
func (r *Rank) FormatCost(n int64) {
	r.clock.Advance(float64(n) * r.world.cost.FormatByteCost)
}

// MemCopy charges an in-memory copy of n bytes.
func (r *Rank) MemCopy(n int64) {
	r.clock.Advance(float64(n) / r.world.cost.MemCopyBandwidth)
}

// IO charges a storage access of n bytes against fs, including queueing
// behind other ranks' concurrent accesses.
func (r *Rank) IO(fs *vfs.FS, n int64) {
	r.maybeCrash()
	end := fs.Access(r.clock.Now(), n)
	r.clock.AdvanceTo(end)
}

// IOHandle is an in-flight asynchronous storage access created by StartIO
// and settled by Wait.
type IOHandle struct {
	start, end float64
	done       bool
}

// StartIO begins an asynchronous storage access: the operation books a
// storage channel from the rank's current virtual time — contention,
// queueing, and transient-fault backoff resolve exactly as for IO — but the
// rank's clock does not advance. The rank may keep computing (or start more
// accesses) and settle the bill with Wait, paying max(io, compute) instead
// of their sum. Deterministic: issue order follows the discrete-event
// schedule, so the booked completion time is reproducible.
func (r *Rank) StartIO(fs *vfs.FS, n int64) *IOHandle {
	r.maybeCrash()
	start := r.clock.Now()
	end := fs.Access(start, n)
	r.Metrics().Counter("mpi.async_io_started", r.id).Inc()
	return &IOHandle{start: start, end: end}
}

// Wait completes an asynchronous access: if the operation is still running,
// the clock advances to its completion time, charging the current phase;
// if it already finished while the rank was doing other work, Wait is free.
// The hidden/exposed split of every operation's duration is recorded as the
// overlap-effectiveness metrics mpi.async_io_hidden_s / _exposed_s.
// Waiting on a nil or already-settled handle is a no-op.
func (r *Rank) Wait(h *IOHandle) {
	r.maybeCrash()
	if h == nil || h.done {
		return
	}
	h.done = true
	hidden, exposed := simtime.OverlapSplit(h.start, h.end, r.clock.Now())
	r.clock.AdvanceTo(h.end)
	reg := r.Metrics()
	reg.Gauge("mpi.async_io_hidden_s", r.id).Add(hidden)
	reg.Gauge("mpi.async_io_exposed_s", r.id).Add(exposed)
}

// FaultsScheduled reports whether this world's configuration schedules any
// faults. Protocols use it to choose between tight blocking receives
// (exact timing) and crash-aware timeout loops (survivable, but each poll
// rounds the wait up to the next timeout boundary).
func (r *Rank) FaultsScheduled() bool { return len(r.world.config.Faults) > 0 }

// Send transmits data to dst with the given tag. It is buffered and does
// not block. The payload is NOT copied; callers must not mutate it after
// sending.
func (r *Rank) Send(dst, tag int, data []byte) {
	w := r.world
	if dst < 0 || dst >= w.n {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	r.maybeCrash()
	w.config.Comm.add(r.id, tag, int64(len(data)))
	r.recordSend(tag, int64(len(data)))
	r.clock.Advance(float64(len(data)) / w.cost.NetBandwidth)
	w.mu.Lock()
	if w.crashed[dst] {
		// The destination is dead: the sender still pays its NIC
		// occupancy (charged above), but the bytes land nowhere.
		w.mu.Unlock()
		return
	}
	w.seq++
	m := message{
		src:     r.id,
		tag:     tag,
		data:    data,
		arrival: r.clock.Now() + w.cost.NetLatency,
		seq:     w.seq,
		batch:   r.traceBatch,
		sendAt:  r.clock.Now(),
	}
	w.inbox[dst] = append(w.inbox[dst], m)
	// A match for a blocked receiver can only pull its eligibility earlier.
	if w.states[dst] == stateBlockedRecv && m.matches(w.recvSrc[dst], w.recvTag[dst]) {
		w.ready.lower(dst, math.Max(w.ranks[dst].clock.Now(), m.arrival))
	}
	w.mu.Unlock()
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload, source, and tag. Use AnySource / AnyTag as wildcards.
func (r *Rank) Recv(src, tag int) (data []byte, from, gotTag int) {
	r.maybeCrash()
	w := r.world
	w.mu.Lock()
	// Install the match filter BEFORE the first queue scan —
	// earliestMatchLocked reads it, and a stale filter from a previous
	// Recv could mis-consume another sender's message.
	w.recvSrc[r.id], w.recvTag[r.id] = src, tag
	w.recvDeadline[r.id] = math.Inf(1)
	for {
		if k := w.earliestMatchLocked(r.id); k >= 0 {
			m := w.takeMessageLocked(r.id, k)
			w.mu.Unlock()
			r.clock.AdvanceTo(m.arrival)
			r.clock.Advance(float64(len(m.data)) / w.cost.NetBandwidth)
			r.deliverFlow(m)
			return m.data, m.src, m.tag
		}
		r.blockLocked(stateBlockedRecv)
		// Loop: a match is guaranteed present now.
	}
}

// RecvTimeout is Recv with a virtual-time deadline — the primitive failure
// detection is built from. It returns:
//
//   - (data, from, tag, nil) when a matching message can be delivered no
//     later than now+timeout;
//   - ErrRankFailed (wrapped, with the crash time) when src is a specific
//     rank that has crashed and no deliverable match is queued;
//   - ErrTimeout when the deadline passes first — the clock advances to
//     the deadline, so repeated polling makes forward progress.
//
// Determinism: the wake-up time is min(match delivery, deadline), resolved
// by the same earliest-event scheduler as everything else.
func (r *Rank) RecvTimeout(src, tag int, timeout float64) (data []byte, from, gotTag int, err error) {
	r.maybeCrash()
	w := r.world
	if timeout < 0 || math.IsNaN(timeout) {
		timeout = 0
	}
	entered := r.clock.Now()
	deadline := entered + timeout
	w.mu.Lock()
	w.recvSrc[r.id], w.recvTag[r.id] = src, tag
	w.recvDeadline[r.id] = deadline
	waited := false
	for {
		if k := w.earliestMatchLocked(r.id); k >= 0 && math.Max(r.clock.Now(), w.inbox[r.id][k].arrival) <= deadline {
			m := w.takeMessageLocked(r.id, k)
			w.recvDeadline[r.id] = math.Inf(1)
			w.mu.Unlock()
			r.clock.AdvanceTo(m.arrival)
			r.clock.Advance(float64(len(m.data)) / w.cost.NetBandwidth)
			r.deliverFlow(m)
			return m.data, m.src, m.tag, nil
		}
		if src != AnySource && src >= 0 && src < w.n && w.crashed[src] {
			at := w.crashTime[src]
			w.recvDeadline[r.id] = math.Inf(1)
			w.mu.Unlock()
			r.clock.AdvanceTo(at) // no-op when the crash is in our past
			w.config.Metrics.Counter("mpi.recv_failed_peer", r.id).Inc()
			return nil, 0, 0, fmt.Errorf("mpi: recv from rank %d: %w (crashed at t=%.6f)", src, ErrRankFailed, at)
		}
		// Once the scheduler has woken us without a deliverable match,
		// the deadline was the earliest event: time out.
		if waited || r.clock.Now() >= deadline {
			w.recvDeadline[r.id] = math.Inf(1)
			w.mu.Unlock()
			r.clock.AdvanceTo(deadline)
			if reg := w.config.Metrics; reg != nil {
				reg.Counter("mpi.recv_timeouts", r.id).Inc()
				reg.Gauge("mpi.recv_timeout_wait_s", r.id).Add(deadline - entered)
			}
			return nil, 0, 0, ErrTimeout
		}
		waited = true
		r.blockLocked(stateBlockedRecv)
	}
}

// TryRecv delivers a matching message that has ALREADY arrived (arrival ≤
// the rank's current clock) without blocking or advancing time past the
// receive cost. It reports ok=false when nothing deliverable is queued.
func (r *Rank) TryRecv(src, tag int) (data []byte, from, gotTag int, ok bool) {
	r.maybeCrash()
	w := r.world
	w.mu.Lock()
	w.recvSrc[r.id], w.recvTag[r.id] = src, tag
	w.recvDeadline[r.id] = math.Inf(1)
	k := w.earliestMatchLocked(r.id)
	if k < 0 || w.inbox[r.id][k].arrival > r.clock.Now() {
		w.mu.Unlock()
		return nil, 0, 0, false
	}
	m := w.takeMessageLocked(r.id, k)
	w.mu.Unlock()
	r.clock.Advance(float64(len(m.data)) / w.cost.NetBandwidth)
	r.deliverFlow(m)
	return m.data, m.src, m.tag, true
}

// logSteps returns ceil(log2(n)), the tree depth collective latencies use.
// A single rank (or none) needs no tree and pays no latency.
func logSteps(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// runCollective synchronizes all LIVE ranks; release receives the gathered
// per-rank payloads and the maximum entry clock, and returns the common
// release time. Every rank returns the shared data slice. Crashed ranks
// are not waited for — their datas entries stay nil (consumers of gathered
// payloads must tolerate that under fault schedules) — and a participant
// that crashes at the door completes the collective for the survivors.
func (r *Rank) runCollective(op string, data []byte, release func(datas [][]byte, maxClock float64) float64) [][]byte {
	r.maybeCrash()
	w := r.world
	w.config.Comm.addCollective(r.id, int64(len(data)))
	if reg := w.config.Metrics; reg != nil {
		reg.Counter("mpi.collective."+op, r.id).Inc()
		// Per-op byte series alongside the undifferentiated total, so
		// experiments can attribute collective volume to gather vs bcast
		// vs reduce individually.
		reg.Counter("mpi.collective."+op+".bytes", r.id).Add(int64(len(data)))
		reg.Counter("mpi.collective.bytes", r.id).Add(int64(len(data)))
	}
	w.mu.Lock()
	c := w.coll
	if c == nil {
		c = &collective{
			op:        op,
			datas:     make([][]byte, w.n),
			releaseFn: release,
			entries:   make([]float64, w.n),
			batches:   make([]int, w.n),
			joined:    make([]bool, w.n),
		}
		w.coll = c
	}
	if c.op != op {
		w.mu.Unlock()
		panic(fmt.Sprintf("mpi: rank %d entered collective %q while %q in progress", r.id, op, c.op))
	}
	c.datas[r.id] = data
	c.entries[r.id] = r.clock.Now()
	c.batches[r.id] = r.traceBatch
	c.joined[r.id] = true
	c.count++
	w.collOf[r.id] = c
	if c.count < w.live {
		r.blockLocked(stateBlockedColl)
		w.mu.Unlock()
		r.clock.AdvanceTo(c.releaseAt)
		return c.datas
	}
	// Last live participant: compute release time and free everyone.
	w.completeCollectiveLocked(c)
	w.mu.Unlock()
	r.clock.AdvanceTo(c.releaseAt)
	return c.datas
}

// Barrier synchronizes all ranks; everyone leaves at the latest entry time
// plus a tree-latency term.
func (r *Rank) Barrier() {
	w := r.world
	r.runCollective("barrier", nil, func(_ [][]byte, maxClock float64) float64 {
		return maxClock + w.cost.NetLatency*logSteps(w.n)
	})
}

// Bcast distributes root's payload to every rank and returns it.
func (r *Rank) Bcast(root int, data []byte) []byte {
	w := r.world
	var payload []byte
	if r.id == root {
		payload = data
	}
	datas := r.runCollective("bcast", payload, func(datas [][]byte, maxClock float64) float64 {
		size := float64(len(datas[root]))
		return maxClock + w.cost.NetLatency*logSteps(w.n) + size/w.cost.NetBandwidth
	})
	return datas[root]
}

// Gather collects every rank's payload at root. Root receives the slice
// indexed by rank; other ranks receive nil. The root link is modelled as
// the bottleneck: completion pays the total inbound volume.
func (r *Rank) Gather(root int, data []byte) [][]byte {
	w := r.world
	datas := r.runCollective("gather", data, func(datas [][]byte, maxClock float64) float64 {
		var total int64
		for i, d := range datas {
			if i != root {
				total += int64(len(d))
			}
		}
		return maxClock + w.cost.NetLatency*logSteps(w.n) + float64(total)/w.cost.NetBandwidth
	})
	if r.id == root {
		return datas
	}
	return nil
}

// AllGather collects every rank's payload everywhere.
func (r *Rank) AllGather(data []byte) [][]byte {
	w := r.world
	return r.runCollective("allgather", data, func(datas [][]byte, maxClock float64) float64 {
		var total int64
		for _, d := range datas {
			total += int64(len(d))
		}
		return maxClock + w.cost.NetLatency*logSteps(w.n) + float64(total)/w.cost.NetBandwidth
	})
}

// ReduceMax computes the element-wise maximum of per-rank int64 vectors at
// every rank (a convenience for threshold broadcasting in the engines).
//
// Fault-free worlds run it as a k-ary TreeReduce to rank 0 followed by a
// Bcast — O(N) payloads on the wire instead of the O(N²) an AllGather
// moves. Worlds with scheduled faults keep the AllGather formulation: the
// flat collective completes over the survivors (crashed ranks contribute
// nothing), which is the crash semantics callers rely on.
func (r *Rank) ReduceMax(values []int64) []int64 {
	buf := make([]byte, 8*len(values))
	for i, v := range values {
		putInt64(buf[8*i:], v)
	}
	if !r.FaultsScheduled() {
		members := make([]int, r.Size())
		for i := range members {
			members[i] = i
		}
		combined, _, err := r.TreeReduce(0, DefaultTreeFanout, members, buf, maxCombine)
		if err != nil {
			panic("mpi: ReduceMax tree reduce failed: " + err.Error())
		}
		if r.id != 0 {
			combined = nil
		}
		buf = r.Bcast(0, combined)
		out := make([]int64, len(values))
		if len(buf) != 8*len(values) {
			panic("mpi: ReduceMax length mismatch across ranks")
		}
		for i := range out {
			out[i] = getInt64(buf[8*i:])
		}
		return out
	}
	datas := r.AllGather(buf)
	out := make([]int64, len(values))
	first := true
	for _, d := range datas {
		if d == nil {
			continue // crashed rank: no contribution
		}
		if len(d) != len(buf) {
			panic("mpi: ReduceMax length mismatch across ranks")
		}
		for i := range out {
			v := getInt64(d[8*i:])
			if first || v > out[i] {
				out[i] = v
			}
		}
		first = false
	}
	return out
}

// maxCombine is the element-wise int64 maximum over two equal-length
// encoded vectors — the associative combiner ReduceMax feeds TreeReduce.
func maxCombine(a, b []byte) []byte {
	if len(a) != len(b) {
		panic("mpi: ReduceMax length mismatch across ranks")
	}
	out := make([]byte, len(a))
	for i := 0; i+8 <= len(a); i += 8 {
		va, vb := getInt64(a[i:]), getInt64(b[i:])
		if vb > va {
			va = vb
		}
		putInt64(out[i:], va)
	}
	return out
}

func putInt64(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getInt64(b []byte) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}

// PendingMessages reports how many undelivered messages each rank has —
// a post-run hygiene check used by tests.
func (w *World) PendingMessages() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]int, w.n)
	for i := range w.inbox {
		out[i] = len(w.inbox[i])
	}
	return out
}

// SortRanksByClock returns rank ids ordered by final virtual time — a
// reporting helper.
func SortRanksByClock(clocks []*simtime.Clock) []int {
	ids := make([]int, len(clocks))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		return clocks[ids[a]].Now() < clocks[ids[b]].Now()
	})
	return ids
}
