package mpi

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"parblast/internal/simtime"
)

// Schedule pin: seeded random programs over the whole mpi surface —
// point-to-point with every receive flavour, flat and tree collectives,
// crash/degrade faults and injected body errors — each hashed down to one
// digest of everything the scheduler decides: final clocks and phase
// buckets, the ordered flow stream, every rank's receive sequence, and the
// run's error text. Any change to the token-selection rule, to when a rank
// becomes eligible, or to message matching moves a digest.

type pinOp int

const (
	pinP2P pinOp = iota
	pinBarrier
	pinBcast
	pinGather
	pinAllGather
	pinReduceMax
	pinTreeReduce
	pinTreeBcast
	pinTreeBarrier
)

// Receive styles of a point-to-point step.
const (
	recvAnyAny     = iota // Recv(AnySource, AnyTag) per message
	recvBySource          // Recv(src, AnyTag), sources ascending
	recvByTag             // Recv(AnySource, tag), tags ascending
	recvExact             // Recv(src, tag) per message, plan order
	recvTryPoll           // TryRecv(AnySource, AnyTag); Advance+Yield on a miss
	recvTimeoutAny        // RecvTimeout(AnySource, AnyTag, …)
	recvTimeoutSrc        // RecvTimeout(src, AnyTag, …), skipping crashed sources
)

type pinMsg struct{ src, dst, tag, size int }

type pinStep struct {
	op      pinOp
	root    int
	fanout  int
	members []int // tree ops: caller-order member list
	size    int   // collective payload bytes
	msgs    []pinMsg
	style   []int // per rank, p2p steps
	work    []float64
	units   []int64
	phase   []string
	yield   []bool
}

type pinProgram struct {
	name     string
	n        int
	faults   []Fault
	crash    bool // a crash is scheduled: receives must time out
	failRank int  // rank that fails at failStep (-1 = none)
	failStep int
	hang     bool // the failing rank blocks forever instead of returning an error
	steps    []pinStep
}

var pinPhases = []string{simtime.PhaseInput, simtime.PhaseSearch, simtime.PhaseOutput, simtime.PhaseOther}

// Program kinds: how a program fails, if it does.
const (
	kindClean       = iota // no faults
	kindCrash              // a crash plus a degrade; receives time out
	kindDegrade            // a degrade only
	kindBodyError          // one rank's body returns an error
	kindDeadlock           // one rank waits for a message nobody sends
	kindUnrecovered        // a crash under plain blocking receives
	pinKinds
)

// genPinProgram builds one seeded program of the given kind.
func genPinProgram(seed int64, n, kind int) pinProgram {
	rng := rand.New(rand.NewSource(seed))
	p := pinProgram{name: fmt.Sprintf("s%02d-n%d-k%d", seed, n, kind), n: n, failRank: -1}
	nsteps := 6 + rng.Intn(10)
	faulty := kind == kindCrash || kind == kindDegrade || kind == kindUnrecovered
	if kind == kindCrash || kind == kindUnrecovered {
		p.crash = kind == kindCrash
		victim := rng.Intn(n)
		p.faults = append(p.faults, Fault{Rank: victim, At: rng.Float64() * float64(nsteps) * 2e-3, Kind: FaultCrash})
	}
	if faulty {
		p.faults = append(p.faults, Fault{Rank: rng.Intn(n), At: rng.Float64() * float64(nsteps) * 1e-3, Kind: FaultDegrade, Slow: 1 + 3*rng.Float64()})
	}
	if kind == kindBodyError || kind == kindDeadlock {
		p.failRank = rng.Intn(n)
		p.failStep = rng.Intn(nsteps)
		p.hang = kind == kindDeadlock
	}
	allRanks := make([]int, n)
	for i := range allRanks {
		allRanks[i] = i
	}
	flat := []pinOp{pinBarrier, pinBcast, pinGather, pinAllGather, pinReduceMax}
	for len(p.steps) < nsteps {
		st := pinStep{
			work:  make([]float64, n),
			units: make([]int64, n),
			phase: make([]string, n),
			yield: make([]bool, n),
		}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				st.work[i] = rng.Float64() * 2e-3
			}
			if rng.Intn(3) == 0 {
				st.units[i] = int64(rng.Intn(3000))
			}
			st.phase[i] = pinPhases[rng.Intn(len(pinPhases))]
			st.yield[i] = rng.Intn(4) == 0
		}
		st.size = rng.Intn(200)
		st.root = rng.Intn(n)
		st.fanout = 2 + rng.Intn(7)
		switch x := rng.Intn(10); {
		case x < 4:
			st.op = pinP2P
			if n > 1 {
				for src := 0; src < n; src++ {
					for k := rng.Intn(4); k > 0; k-- {
						dst := rng.Intn(n - 1)
						if dst >= src {
							dst++
						}
						st.msgs = append(st.msgs, pinMsg{src: src, dst: dst, tag: 1 + rng.Intn(4), size: rng.Intn(300)})
					}
				}
			}
			rng.Shuffle(len(st.msgs), func(i, j int) { st.msgs[i], st.msgs[j] = st.msgs[j], st.msgs[i] })
			st.style = make([]int, n)
			for i := range st.style {
				if p.crash {
					st.style[i] = recvTimeoutAny + rng.Intn(2)
				} else {
					st.style[i] = rng.Intn(recvTimeoutSrc)
				}
			}
		case x < 7:
			st.op = flat[rng.Intn(len(flat))]
		default:
			st.op = pinTreeReduce + pinOp(rng.Intn(3))
			st.members = append([]int(nil), allRanks...)
			if !faulty && n > 1 && rng.Intn(2) == 0 {
				// A member subset in scrambled caller order: non-members
				// sit the step out.
				rng.Shuffle(n, func(i, j int) { st.members[i], st.members[j] = st.members[j], st.members[i] })
				st.members = st.members[:1+rng.Intn(n)]
			} else if rng.Intn(2) == 0 {
				rng.Shuffle(n, func(i, j int) { st.members[i], st.members[j] = st.members[j], st.members[i] })
			}
			st.root = st.members[rng.Intn(len(st.members))]
		}
		p.steps = append(p.steps, st)
		subset := st.members != nil && len(st.members) < n
		if (st.op == pinP2P || subset) && len(p.steps) < nsteps {
			// A true barrier fences each p2p step, so no wildcard receive
			// sees a later step's traffic, and each subset tree step, whose
			// non-members would otherwise run ahead into the next tree step
			// on the same tags. (ReduceMax opens with a tree reduction, so it
			// is no fence.)
			fence := st
			fence.op = flat[rng.Intn(len(flat)-1)]
			fence.msgs, fence.style = nil, nil
			p.steps = append(p.steps, fence)
		}
	}
	return p
}

// pinRecorder collects a run's observable schedule.
type pinRecorder struct {
	logs  [][]string // per rank, written only by that rank's goroutine
	mu    sync.Mutex
	flows []string
}

func (rec *pinRecorder) log(id int, format string, args ...any) {
	rec.logs[id] = append(rec.logs[id], fmt.Sprintf(format, args...))
}

const (
	pinPollBudget = 2000
	pinTimeout    = 5e-3
	pinGiveUp     = 3
	pinHangTag    = 99 // no program ever sends it
)

var errPinBudget = errors.New("poll budget exhausted")

func (p *pinProgram) body(rec *pinRecorder) func(r *Rank) error {
	return func(r *Rank) error {
		id := r.ID()
		for si, st := range p.steps {
			if id == p.failRank && si == p.failStep {
				if p.hang {
					r.Recv(AnySource, pinHangTag)
				}
				return fmt.Errorf("injected failure at step %d", si)
			}
			r.SetPhase(st.phase[id])
			if st.work[id] > 0 {
				r.Advance(st.work[id])
			}
			if st.units[id] > 0 {
				r.Compute(st.units[id])
			}
			if st.yield[id] {
				r.Yield()
			}
			if err := p.runStep(r, rec, st); err != nil {
				return fmt.Errorf("step %d: %w", si, err)
			}
		}
		return nil
	}
}

func (p *pinProgram) runStep(r *Rank, rec *pinRecorder, st pinStep) error {
	id := r.ID()
	payload := make([]byte, st.size)
	for i := range payload {
		payload[i] = byte(id + i)
	}
	isMember := false
	for _, m := range st.members {
		isMember = isMember || m == id
	}
	switch st.op {
	case pinP2P:
		return p.runP2P(r, rec, st)
	case pinBarrier:
		r.Barrier()
	case pinBcast:
		var in []byte
		if id == st.root {
			in = payload
		}
		rec.log(id, "bcast %d", len(r.Bcast(st.root, in)))
	case pinGather:
		rec.log(id, "gather %s", lens(r.Gather(st.root, payload)))
	case pinAllGather:
		rec.log(id, "allgather %s", lens(r.AllGather(payload)))
	case pinReduceMax:
		vals := make([]int64, 1+st.size%3)
		for i := range vals {
			vals[i] = int64((id*7919 + st.size*31 + i*17) % 1000)
		}
		rec.log(id, "reducemax %v", r.ReduceMax(vals))
	case pinTreeReduce:
		if !isMember {
			return nil
		}
		combined, contrib, err := r.TreeReduce(st.root, st.fanout, st.members, rankPayload(id, 2), sumCombine)
		if err != nil {
			return err
		}
		rec.log(id, "treereduce %x %v", combined, contrib)
	case pinTreeBcast:
		if !isMember {
			return nil
		}
		var in []byte
		if id == st.root {
			in = payload
		}
		rec.log(id, "treebcast %d", len(r.TreeBcast(st.root, st.fanout, st.members, in)))
	case pinTreeBarrier:
		if !isMember {
			return nil
		}
		r.TreeBarrier(st.root, st.fanout, st.members)
	}
	return nil
}

func lens(datas [][]byte) string {
	var b strings.Builder
	for _, d := range datas {
		if d == nil {
			b.WriteString("- ")
			continue
		}
		fmt.Fprintf(&b, "%d ", len(d))
	}
	return b.String()
}

func (p *pinProgram) runP2P(r *Rank, rec *pinRecorder, st pinStep) error {
	id := r.ID()
	var in []pinMsg
	for _, m := range st.msgs {
		if m.src == id {
			r.Send(m.dst, m.tag, make([]byte, m.size))
		}
		if m.dst == id {
			in = append(in, m)
		}
	}
	got := func(data []byte, from, tag int) {
		rec.log(id, "recv src=%d tag=%d len=%d t=%v", from, tag, len(data), r.Clock().Now())
	}
	switch st.style[id] {
	case recvAnyAny:
		for range in {
			got(r.Recv(AnySource, AnyTag))
		}
	case recvBySource, recvByTag:
		counts := map[int]int{}
		keyMax := 0
		for _, m := range in {
			k := m.src
			if st.style[id] == recvByTag {
				k = m.tag
			}
			counts[k]++
			keyMax = max(keyMax, k)
		}
		for k := 0; k <= keyMax; k++ {
			for c := counts[k]; c > 0; c-- {
				if st.style[id] == recvByTag {
					got(r.Recv(AnySource, k))
				} else {
					got(r.Recv(k, AnyTag))
				}
			}
		}
	case recvExact:
		for _, m := range in {
			got(r.Recv(m.src, m.tag))
		}
	case recvTryPoll:
		for n, polls := 0, 0; n < len(in); polls++ {
			if polls > pinPollBudget {
				return errPinBudget
			}
			if data, from, tag, ok := r.TryRecv(AnySource, AnyTag); ok {
				got(data, from, tag)
				n++
				continue
			}
			r.Advance(5e-4)
			r.Yield()
		}
	case recvTimeoutAny:
		for n, idle, polls := 0, 0, 0; n < len(in); polls++ {
			if polls > pinPollBudget {
				return errPinBudget
			}
			data, from, tag, err := r.RecvTimeout(AnySource, AnyTag, pinTimeout)
			if err != nil {
				rec.log(id, "timeout t=%v", r.Clock().Now())
				if idle++; p.crash && idle > pinGiveUp {
					break
				}
				continue
			}
			got(data, from, tag)
			idle = 0
			n++
		}
	case recvTimeoutSrc:
		for _, m := range in {
			for idle, polls := 0, 0; ; polls++ {
				if polls > pinPollBudget {
					return errPinBudget
				}
				data, from, tag, err := r.RecvTimeout(m.src, AnyTag, pinTimeout)
				if err == nil {
					got(data, from, tag)
					break
				}
				rec.log(id, "recv-error %v", err)
				if errors.Is(err, ErrRankFailed) {
					break
				}
				if idle++; idle > pinGiveUp {
					break
				}
			}
		}
	}
	return nil
}

// run executes the program and returns its schedule digest plus a
// human-readable summary for diagnosing a moved digest.
func (p *pinProgram) run() (string, string) {
	rec := &pinRecorder{logs: make([][]string, p.n)}
	cfg := Config{
		Cost:   testCost(),
		Faults: p.faults,
		OnFlow: func(f FlowEvent) {
			rec.mu.Lock()
			rec.flows = append(rec.flows, fmt.Sprintf("%+v", f))
			rec.mu.Unlock()
		},
	}
	clocks, err := RunConfig(p.n, cfg, p.body(rec))
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v\n", err)
	for i, c := range clocks {
		fmt.Fprintf(&b, "clock%d=%v", i, c.Now())
		for _, ph := range simtime.SortedPhases(c) {
			fmt.Fprintf(&b, " %s:%v", ph, c.Bucket(ph))
		}
		b.WriteString("\n")
	}
	summary := b.String()
	for i, l := range rec.logs {
		fmt.Fprintf(&b, "recv%d=%s\n", i, strings.Join(l, "; "))
	}
	fmt.Fprintf(&b, "flows=%s\n", strings.Join(rec.flows, "\n"))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:24], summary
}

// pinPrograms is the pinned corpus: 48 programs at 1–64 ranks cycling
// through the program kinds, a lone rank, and one wide program at 257
// ranks.
func pinPrograms() []pinProgram {
	var out []pinProgram
	for seed := int64(1); seed <= 48; seed++ {
		n := 1 + rand.New(rand.NewSource(seed*1009)).Intn(64)
		out = append(out, genPinProgram(seed, n, int(seed%pinKinds)))
	}
	return append(out, genPinProgram(100, 1, kindClean), genPinProgram(257, 257, kindClean))
}

// schedPinGolden holds one digest per program of pinPrograms.
var schedPinGolden = map[string]string{
	"s01-n48-k1":   "0f5e22a10509625fc9f4b8d6",
	"s02-n60-k2":   "cbf92235e7ddb6cec6bb5f50",
	"s03-n15-k3":   "66b575fb82d643ab43ad834e",
	"s04-n46-k4":   "35ace9da627f093c74c10c42",
	"s05-n41-k5":   "a2277fc6d7c13c3878b75399",
	"s06-n62-k0":   "b044ebc3b079a93473480ff8",
	"s07-n30-k1":   "35016d6c29142d6b25925675",
	"s08-n42-k2":   "8b7b8ac582a56c5f4eccbcc7",
	"s09-n44-k3":   "f9c0cda58627c85896c8b2d2",
	"s10-n11-k4":   "0c9fb0674ac90bf59f35d86d",
	"s11-n21-k5":   "46e3c0569a5c00dc3a79196a",
	"s12-n40-k0":   "11190a26d2084ed045fd06de",
	"s13-n7-k1":    "fa0413c9d24241b6eabc5690",
	"s14-n2-k2":    "04927d6f0d684fce0d0d4a33",
	"s15-n22-k3":   "185dc3e2f3c12eaaf347fd13",
	"s16-n49-k4":   "5f90df4ffdff6ca989e7f6ea",
	"s17-n2-k5":    "26895c9a5f701985f2672794",
	"s18-n5-k0":    "475037903fcab30c11348cab",
	"s19-n33-k1":   "bb0cda71a21e3241759b6434",
	"s20-n48-k2":   "49fdf160cb2d25d018b64011",
	"s21-n2-k3":    "d21f6db5e743db60235d1a87",
	"s22-n28-k4":   "870a82fbd00e85d7393477a8",
	"s23-n27-k5":   "a052fc2196f9186ecf4ea413",
	"s24-n47-k0":   "2006b53674302edec8454892",
	"s25-n9-k1":    "494bb89391c1beab2a8efd75",
	"s26-n24-k2":   "a9e768fc7e9fd832dd95be3c",
	"s27-n28-k3":   "d469e76c2e435c3054b01d4e",
	"s28-n57-k4":   "8ac882effe84ef41211a97e3",
	"s29-n8-k5":    "526c48ebb8f91c1cbce0b2dc",
	"s30-n27-k0":   "8728558433a776e3fd790c34",
	"s31-n38-k1":   "703c25b7bb21c098d0756341",
	"s32-n58-k2":   "74580e57f2dd338162db58bd",
	"s33-n6-k3":    "674c0896d410e43f65d46747",
	"s34-n34-k4":   "f2f06a4db9a14cc61fb3f0c2",
	"s35-n54-k5":   "e8b2509b457890f6dd5f9dc1",
	"s36-n52-k0":   "ef4e8fceaca3d4510b1be2cc",
	"s37-n16-k1":   "1403862dddcd4ad1f5015ffe",
	"s38-n35-k2":   "e8fa71ac8572a862104fb733",
	"s39-n52-k3":   "67063862af3ce664e1320562",
	"s40-n64-k4":   "e04f6c42ab03261391ff69e4",
	"s41-n18-k5":   "c3889bf1e023e6ffeaa0bd88",
	"s42-n34-k0":   "d78b116807dfd485b90f30fd",
	"s43-n61-k1":   "747557f875ebc602d067464a",
	"s44-n14-k2":   "7a4cda78e70a631d82dd13d5",
	"s45-n13-k3":   "4fc4bda1a22d397bc2a2bde4",
	"s46-n41-k4":   "5a8d2606188336e1dd185d29",
	"s47-n59-k5":   "d8b1ef1b3883d6e1fc16508b",
	"s48-n7-k0":    "2a8049d4e53bf05c36199d59",
	"s100-n1-k0":   "997452be406efcd7be22c628",
	"s257-n257-k0": "1fb383a139246f2c59a06490",
}

func TestScheduleDigestsPinned(t *testing.T) {
	for _, p := range pinPrograms() {
		got, summary := p.run()
		want, ok := schedPinGolden[p.name]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest (got %q)", p.name, got)
		case got != want:
			t.Errorf("%s: schedule digest %s, pinned %s\n%s", p.name, got, want, summary)
		}
	}
}
