package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"parblast"
)

// profiler brackets traced calls with a CPU profile and two snapshots of
// the allocation profile, and accumulates both folds.
type profiler struct {
	cpu, alloc  map[string]float64 // nanoseconds / bytes per bucket, summed
	allocBefore map[string]float64
	buf         bytes.Buffer
	calls       int
	err         error
}

func newProfiler() *profiler {
	return &profiler{cpu: map[string]float64{}, alloc: map[string]float64{}}
}

// begin runs after the pre-call GC, so the allocation profile is current.
func (p *profiler) begin() {
	if p.err != nil {
		return
	}
	p.allocBefore, p.err = allocFold()
	p.buf.Reset()
	if p.err == nil {
		p.err = pprof.StartCPUProfile(&p.buf)
	}
}

func (p *profiler) end() {
	if p.err != nil {
		return
	}
	pprof.StopCPUProfile()
	cpu, err := parseProfile(p.buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	folded, err := fold(cpu, "cpu")
	if err != nil {
		p.err = err
		return
	}
	runtime.GC()
	after, err := allocFold()
	if err != nil {
		p.err = err
		return
	}
	for k, v := range folded {
		p.cpu[k] += v
	}
	for k, v := range after {
		p.alloc[k] += v - p.allocBefore[k]
	}
	p.calls++
}

// allocFold folds the cumulative allocation profile by bucket (bytes).
func allocFold() (map[string]float64, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, fmt.Errorf("allocation profile: %w", err)
	}
	p, err := parseProfile(b.Bytes())
	if err != nil {
		return nil, err
	}
	return fold(p, "alloc_space")
}

// minTracedPairs is the fewest untraced-traced call pairs a traced run makes.
const minTracedPairs = 2

// runTraced reports the per-layer metrics. It alternates untraced calls
// with traced ones (flows, metrics and both profiles on), so their ratio
// is the cost of observing; then it runs the layer probes.
func runTraced(w workload, seed int64, budget time.Duration) (*results, error) {
	s, err := newSession(w, seed)
	if err != nil {
		return nil, err
	}
	prof := newProfiler()
	var plain, traced []float64
	var first *env
	var firstResult parblast.Result
	var wall float64
	// A third of the budget is left for the probes.
	deadline := time.Now().Add(budget * 2 / 3)
	for n := 0; n < minTracedPairs || time.Now().Before(deadline); n++ {
		_, hc, ok, err := s.timedRun(nil)
		if err != nil {
			return nil, err
		}
		if ok {
			plain = append(plain, hc.seconds)
		}
		e, hc, ok, err := s.timedRun(prof)
		if err != nil {
			return nil, err
		}
		if ok {
			traced = append(traced, hc.seconds)
			if first == nil {
				first, firstResult, wall = e, hc.outcome.result, hc.outcome.virtual.wall
			}
		}
	}
	if err := s.topUpSetups(); err != nil {
		return nil, err
	}
	r := newResults(w, s.gate)

	// Spans around the benchmark's own calls into each layer.
	r.add("workload.gen_s", "s", s.setupMedian(func(sp setupSpans) float64 { return sp.gen }), len(s.setups))
	r.add("formatdb.format_s", "s", s.setupMedian(func(sp setupSpans) float64 { return sp.format }), len(s.setups))
	r.add("mpiblast.prepare_s", "s", s.setupMedian(func(sp setupSpans) float64 { return sp.prepare }), len(s.setups))
	r.add("engine.oracle_s", "s", s.oracle, 1)

	// Host CPU and allocation by layer, per traced call.
	calls := float64(max(prof.calls, 1))
	var cpuTotal, allocTotal float64
	for _, b := range foldBuckets {
		cpuTotal += prof.cpu[b]
		allocTotal += prof.alloc[b]
	}
	for _, b := range foldBuckets {
		r.add("cpu."+b+"_s", "s", prof.cpu[b]/1e9/calls, prof.calls)
	}
	r.add("cpu.total_s", "s", cpuTotal/1e9/calls, prof.calls)
	for _, b := range foldBuckets {
		r.add("alloc."+b+"_mb", "MB", prof.alloc[b]/mb/calls, prof.calls)
	}
	r.add("alloc.total_mb", "MB", allocTotal/mb/calls, prof.calls)

	// Program registry counts, the virtual wall, its phase split and
	// critical-path blame, from the first traced run. merge-wide has no
	// cluster, so its counts, phases and blame read 0.
	var snap parblast.MetricsSnapshot
	blame := blameOf(nil)
	if first != nil && first.metrics != nil {
		snap = first.metrics.Snapshot()
		blame = blameOf(first.flows)
	}
	for _, c := range countDefs {
		r.add(c.name, c.unit, c.value(snap), 0)
	}
	r.add("virtual_wall_s", "virtual_s", wall, 0)
	ph := firstResult.Phase
	for _, p := range []struct {
		name string
		v    float64
	}{{"copy", ph.Copy}, {"input", ph.Input}, {"search", ph.Search}, {"output", ph.Output}, {"other", ph.Other}} {
		r.add("phase."+p.name+"_vs", "virtual_s", p.v, 0)
	}
	for _, b := range blameNames {
		r.add("cp."+b+"_vs", "virtual_s", blame[b], 0)
	}

	// Layer probes on the workload's own inputs and rank count.
	var setq, frag, build float64
	var nq, nf, nb int
	if first != nil && first.cluster != nil {
		if setq, nq, err = probeSetQuery(first.search.Queries); err != nil {
			return nil, err
		}
		if frag, nf, err = probeFragment(first, w.ranks); err != nil {
			return nil, err
		}
		if build, nb, err = probeReportBuild(w, firstResult, first.metrics); err != nil {
			return nil, err
		}
	}
	barrier, nbar, err := probeBarrier(w.ranks)
	if err != nil {
		return nil, err
	}
	ring, nring, err := probeRing(w.ranks)
	if err != nil {
		return nil, err
	}
	r.add("blast.setquery_ms", "ms", setq, nq)
	r.add("blast.fragment_ms", "ms", frag, nf)
	r.add("mpi.barrier_ms", "ms", barrier, nbar)
	r.add("mpi.ring_ms", "ms", ring, nring)
	r.add("report.build_ms", "ms", build, nb)

	overhead := 0.0
	if p := median(plain); p > 0 {
		overhead = median(traced)/p - 1
	}
	r.add("trace.overhead_frac", "ratio", overhead, min(len(plain), len(traced)))
	return r, nil
}
