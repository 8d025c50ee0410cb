package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"parblast"
	"parblast/internal/experiments"
)

// virtualPrint is everything a run reports on the virtual clock. It is
// pinned: a host-only change must leave every value bit-identical.
type virtualPrint struct {
	wall  float64
	phase [5]float64 // copy, input, search, output, other
	// latencies are pio-serve's per-query virtual latencies.
	latencies []float64
	// merge holds merge-wide's rows: fan-out, master merge span, wall,
	// output bytes and whether the layout matched the flat baseline's.
	merge []experiments.MergeScaleRow
}

func resultPrint(r parblast.Result) virtualPrint {
	return virtualPrint{
		wall:      r.Wall,
		phase:     [5]float64{r.Phase.Copy, r.Phase.Input, r.Phase.Search, r.Phase.Output, r.Phase.Other},
		latencies: r.QueryLatencies,
	}
}

func mergePrint(rows []experiments.MergeScaleRow) virtualPrint {
	v := virtualPrint{merge: rows}
	for _, r := range rows {
		v.wall += r.WallS
	}
	return v
}

// digest renders the print exactly: floats in shortest round-trip form,
// the latency vector as its count and an FNV-1a hash of its bits.
func (v virtualPrint) digest() string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%s", f(v.wall))
	if v.merge == nil {
		fmt.Fprintf(&b, " phase=%s/%s/%s/%s/%s",
			f(v.phase[0]), f(v.phase[1]), f(v.phase[2]), f(v.phase[3]), f(v.phase[4]))
	}
	if len(v.latencies) > 0 {
		h := fnv.New64a()
		var buf [8]byte
		for _, x := range v.latencies {
			bits := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
		fmt.Fprintf(&b, " lat=%d:%016x", len(v.latencies), h.Sum64())
	}
	for _, r := range v.merge {
		fmt.Fprintf(&b, " fan%d=%s/%s/%d/%t", r.Fanout, f(r.MasterMergeS), f(r.WallS), r.OutputBytes, r.Identical)
	}
	return b.String()
}

// defaultSeed is the seed the pinned references below were recorded at.
const defaultSeed = 1

// references pins each workload's virtual print at the default seed. A
// difference is a behaviour change, not a performance change.
var references = map[string]string{
	"pio-wide":   "wall=0.2825886660000143 phase=0/0.012416065000000075/0.23738909599999997/0.07225782400001404/0.013231200000000004 lat=22:211c1509b788ac04",
	"mpi-narrow": "wall=12.01946763800073 phase=0.3636187333333336/0/10.949240388/1.033276818000687/0.012391620000000787 lat=22:f8f565856941d49c",
	"pio-serve":  "wall=3.3363062770000025 phase=0/0.0025167449999999956/3.236108568/0.1174149040000003/0.01723576500000079 lat=44:28477862f1378d22",
	"merge-wide": "wall=0.762974709999989 fan0=0.7066985999999889/0.7067581299999889/26956/true fan2=0.01436807/0.01521632000000001/26956/true " +
		"fan4=0.0153293/0.01590037/26956/true fan8=0.02456882000000001/0.025099890000000007/26956/true",
}

// gate checks runs of one workload at one seed. The first run's print
// becomes the reference on seeds without a pinned one, so every rerun,
// traced or not, must reproduce it bit for bit.
type gate struct {
	oracle    []byte // sequential report; nil for merge-wide
	reference string // expected virtual digest; "" until the first run
	observed  string // the first run's virtual digest
	attempted int
	failed    int
	errors    []string
}

func newGate(w workload, seed int64, oracle []byte) *gate {
	g := &gate{oracle: oracle}
	if seed == defaultSeed {
		g.reference = references[w.name]
	}
	return g
}

// fail records a run that could not be checked because its call failed.
func (g *gate) fail(err error) {
	g.attempted++
	g.failed++
	if len(g.errors) < 8 {
		g.errors = append(g.errors, err.Error())
	}
}

// check records one run and reports whether it passed.
func (g *gate) check(out outcome) bool {
	err := g.verify(out)
	if err != nil {
		g.fail(err)
		return false
	}
	g.attempted++
	return true
}

func (g *gate) verify(out outcome) error {
	for _, r := range out.virtual.merge {
		if !r.Identical {
			return fmt.Errorf("merge fan-out %d: layout differs from the flat baseline", r.Fanout)
		}
	}
	if out.virtual.merge == nil && !bytes.Equal(out.output, g.oracle) {
		return fmt.Errorf("output differs from the sequential oracle at byte %d (%d vs %d bytes)",
			firstDiff(out.output, g.oracle), len(out.output), len(g.oracle))
	}
	d := out.virtual.digest()
	if g.observed == "" {
		g.observed = d
	}
	if g.reference == "" {
		g.reference = d
	} else if d != g.reference {
		return fmt.Errorf("virtual clocks moved: got %s, want %s", d, g.reference)
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
