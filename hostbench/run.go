package main

import (
	"fmt"
	"strconv"
	"time"
)

const (
	// minRuns is the fewest timed calls a run makes, whatever --seconds.
	minRuns = 3
	// minSetups is the fewest set-ups whose median setup_s reports.
	minSetups = 15
)

// session holds what every mode needs first: the oracle, computed once per
// seed outside any timed region, and the gate that checks runs against it.
type session struct {
	w      workload
	seed   int64
	gate   *gate
	oracle float64 // host seconds of the sequential oracle
	setups []setupSpans
}

func newSession(w workload, seed int64) (*session, error) {
	s := &session{w: w, seed: seed}
	var want []byte
	if !w.merge {
		e, sp, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		s.setups = append(s.setups, sp)
		want, s.oracle, err = w.oracle(e)
		if err != nil {
			return nil, err
		}
	}
	s.gate = newGate(w, seed, want)
	return s, nil
}

// timedRun sets up a fresh env and makes one timed call on it. With a
// profiler the env also records flows and metrics and the call runs under
// the CPU and allocation profiles. The outcome goes through the gate; a
// call that errors counts as failed.
func (s *session) timedRun(prof *profiler) (*env, hostCost, bool, error) {
	e, sp, err := s.w.setup(s.seed)
	if err != nil {
		return nil, hostCost{}, false, fmt.Errorf("setup: %w", err)
	}
	s.setups = append(s.setups, sp)
	if prof != nil && e.cluster != nil {
		e.flows = e.cluster.TraceFlows()
		e.metrics = e.cluster.Metrics()
	}
	hc := timeCall(func() (outcome, error) { return s.w.call(e) }, prof)
	if prof != nil && prof.err != nil {
		return nil, hc, false, prof.err
	}
	if hc.callErr != nil {
		s.gate.fail(hc.callErr)
		return e, hc, false, nil
	}
	if err := s.w.collect(e, &hc.outcome); err != nil {
		return nil, hc, false, err
	}
	return e, hc, s.gate.check(hc.outcome), nil
}

// series accumulates the per-call host costs of passing runs.
type series struct {
	run, alloc, peak []float64
	wall             float64
}

func (s *series) add(hc hostCost) {
	s.run = append(s.run, hc.seconds)
	s.alloc = append(s.alloc, hc.allocMB)
	s.peak = append(s.peak, hc.peakMB)
	s.wall = hc.outcome.virtual.wall
}

// measure makes untraced timed calls until the budget is spent (at least
// minRuns).
func (s *session) measure(budget time.Duration) (*series, error) {
	var out series
	deadline := time.Now().Add(budget)
	for n := 0; n < minRuns || time.Now().Before(deadline); n++ {
		_, hc, ok, err := s.timedRun(nil)
		if err != nil {
			return nil, err
		}
		if ok {
			out.add(hc)
		}
	}
	return &out, nil
}

// topUpSetups adds untimed-call set-ups until setup_s has minSetups samples.
func (s *session) topUpSetups() error {
	for len(s.setups) < minSetups {
		_, sp, err := s.w.setup(s.seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s.setups = append(s.setups, sp)
	}
	return nil
}

func (s *session) setupMedian(pick func(setupSpans) float64) float64 {
	xs := make([]float64, len(s.setups))
	for i, sp := range s.setups {
		xs[i] = pick(sp)
	}
	return median(xs)
}

// runEndToEnd measures the untraced timed call: the end-to-end metrics.
func runEndToEnd(w workload, seed int64, budget time.Duration) (*results, error) {
	s, err := newSession(w, seed)
	if err != nil {
		return nil, err
	}
	ser, err := s.measure(budget)
	if err != nil {
		return nil, err
	}
	if err := s.topUpSetups(); err != nil {
		return nil, err
	}
	r := newResults(w, s.gate)
	n := len(ser.run)
	r.add("run_s", "s", median(ser.run), n)
	r.add("setup_s", "s", s.setupMedian(func(sp setupSpans) float64 { return sp.total }), len(s.setups))
	r.add("alloc_mb", "MB", median(ser.alloc), n)
	r.add("peak_live_heap_mb", "MB", median(ser.peak), n)
	// Pinned by the gate, so it is a per-layer metric: as an end-to-end
	// one it would read the same on every merge-wide run.
	r.note("virtual_wall_s %s virtual_s (per-layer metric; pinned by the gate)",
		strconv.FormatFloat(ser.wall, 'g', -1, 64))
	return r, nil
}
