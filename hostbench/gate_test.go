package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"parblast"
	"parblast/internal/experiments"
)

func passingOutcome() outcome {
	return outcome{
		output: []byte("BLASTP report\nquery_0000 hits ...\n"),
		virtual: resultPrint(parblast.Result{
			Wall:           1.25,
			Phase:          parblast.Breakdown{Input: 0.01, Search: 1.1, Output: 0.1, Other: 0.04},
			QueryLatencies: []float64{0.3, 0.7, 1.2},
		}),
	}
}

func TestGateAcceptsIdenticalRuns(t *testing.T) {
	want := passingOutcome()
	g := &gate{oracle: want.output, reference: want.virtual.digest()}
	for i := 0; i < 3; i++ {
		if !g.check(passingOutcome()) {
			t.Fatalf("identical run %d rejected: %v", i, g.errors)
		}
	}
	if g.attempted != 3 || g.failed != 0 {
		t.Fatalf("attempted=%d failed=%d, want 3 and 0", g.attempted, g.failed)
	}
}

func TestGateDetectsFlippedOutputByte(t *testing.T) {
	want := passingOutcome()
	g := &gate{oracle: want.output, reference: want.virtual.digest()}
	for _, at := range []int{0, len(want.output) / 2, len(want.output) - 1} {
		got := passingOutcome()
		got.output = bytes.Clone(want.output)
		got.output[at] ^= 0x01
		if g.check(got) {
			t.Errorf("output with byte %d flipped passed the oracle compare", at)
		}
	}
	got := passingOutcome()
	got.output = got.output[:len(got.output)-1]
	if g.check(got) {
		t.Error("truncated output passed the oracle compare")
	}
	if g.failed != 4 || g.attempted != 4 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 4", g.attempted, g.failed)
	}
}

func TestGateDetectsPerturbedVirtualValue(t *testing.T) {
	ulp := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	perturb := map[string]func(*virtualPrint){
		"wall":    func(v *virtualPrint) { v.wall = ulp(v.wall) },
		"search":  func(v *virtualPrint) { v.phase[2] = ulp(v.phase[2]) },
		"copy":    func(v *virtualPrint) { v.phase[0] = ulp(v.phase[0]) },
		"latency": func(v *virtualPrint) { v.latencies = []float64{0.3, ulp(0.7), 1.2} },
		"dropped": func(v *virtualPrint) { v.latencies = v.latencies[:2] },
	}
	for name, p := range perturb {
		want := passingOutcome()
		g := &gate{oracle: want.output, reference: want.virtual.digest()}
		got := passingOutcome()
		p(&got.virtual)
		if g.check(got) {
			t.Errorf("%s perturbed by one ulp passed the virtual compare", name)
		}
		if len(g.errors) != 1 || !strings.Contains(g.errors[0], "virtual clocks moved") {
			t.Errorf("%s: errors %v, want one virtual-clock failure", name, g.errors)
		}
	}
}

// On a seed without a pinned reference, the first run becomes the
// reference, so a later rerun (traced or not) that moves is caught.
func TestGateUnpinnedSeedComparesReruns(t *testing.T) {
	w, err := lookupWorkload("pio-wide")
	if err != nil {
		t.Fatal(err)
	}
	want := passingOutcome()
	g := newGate(w, defaultSeed+1, want.output)
	if g.reference != "" {
		t.Fatalf("seed %d has a pinned reference", defaultSeed+1)
	}
	if !g.check(passingOutcome()) {
		t.Fatalf("first run rejected: %v", g.errors)
	}
	got := passingOutcome()
	got.virtual.wall += 1e-9
	if g.check(got) {
		t.Fatal("rerun with a moved wall passed")
	}
}

func TestGateDefaultSeedUsesPinnedReference(t *testing.T) {
	for _, w := range workloads {
		g := newGate(w, defaultSeed, nil)
		if g.reference == "" || g.reference != references[w.name] {
			t.Errorf("%s: no pinned reference at the default seed", w.name)
		}
	}
}

func TestGateMergeLayoutMustBeIdentical(t *testing.T) {
	rows := []experiments.MergeScaleRow{
		{Ranks: 8, Fanout: 0, MasterMergeS: 0.5, WallS: 0.6, OutputBytes: 100, Identical: true},
		{Ranks: 8, Fanout: 2, MasterMergeS: 0.1, WallS: 0.2, OutputBytes: 100, Identical: true},
	}
	g := &gate{reference: mergePrint(rows).digest()}
	if !g.check(outcome{virtual: mergePrint(rows)}) {
		t.Fatalf("identical merge rows rejected: %v", g.errors)
	}
	bad := append([]experiments.MergeScaleRow(nil), rows...)
	bad[1].Identical = false
	if g.check(outcome{virtual: mergePrint(bad)}) {
		t.Fatal("a layout that differs from the flat baseline passed")
	}
	moved := append([]experiments.MergeScaleRow(nil), rows...)
	moved[1].MasterMergeS = math.Nextafter(moved[1].MasterMergeS, 1)
	if g.check(outcome{virtual: mergePrint(moved)}) {
		t.Fatal("a moved master-merge span passed")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "parblast/internal/blast.(*wordIndex).buildProtein", "parblast/internal/blast.(*Context).SetQuery"}, "blast.index"},
		{[]string{"parblast/internal/blast.(*wordIndex).lookupDense", "parblast/internal/blast.(*Context).searchSubject"}, "blast.scan"},
		{[]string{"parblast/internal/blast.extendGapped", "parblast/internal/blast.(*Context).gappedFromSeed"}, "blast.extend"},
		{[]string{"parblast/internal/blast.RenderHit", "parblast/internal/core.render"}, "blast.render"},
		{[]string{"sync.(*Mutex).Lock", "parblast/internal/simtime.(*Clock).Advance", "parblast/internal/mpi.(*Rank).Send"}, "mpi"},
		{[]string{"reflect.Value.Field", "encoding/gob.(*Encoder).Encode", "parblast/internal/engine.EncodeGob"}, "gob"},
		{[]string{"parblast/internal/metrics.(*Counter).Add", "parblast/internal/mpi.(*Rank).recordSend"}, "observability"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"main.main", "runtime.main"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var sink [][]byte

// The hand-rolled protobuf reader must decode what runtime/pprof writes.
func TestParseAllocationProfile(t *testing.T) {
	for i := 0; i < 256; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.GC() // the profile is as of the last completed GC
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	folded, err := fold(p, "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range folded {
		total += v
	}
	if total < 16<<20 {
		t.Fatalf("folded %.0f allocated bytes, want at least the 16 MiB this test allocated", total)
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, "TestParseAllocationProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no sample's stack names this test's function")
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func TestDeriveSeedSeparatesStreams(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for stream := uint64(1); stream <= 3; stream++ {
			s := deriveSeed(seed, stream)
			if seen[s] {
				t.Fatalf("seed %d stream %d collides", seed, stream)
			}
			seen[s] = true
			if s != deriveSeed(seed, stream) {
				t.Fatal("deriveSeed is not deterministic")
			}
		}
	}
}

// A real run at the default seed must reproduce its pinned reference and
// the sequential oracle.
func TestPinnedReferenceReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulated search")
	}
	w, err := lookupWorkload("pio-serve")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSession(w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.timedRun(nil); err != nil || !ok {
		t.Fatalf("default-seed run failed the gate: err=%v errors=%v", err, s.gate.errors)
	}
}
