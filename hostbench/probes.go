package main

import (
	"fmt"
	"time"

	"parblast"
	"parblast/internal/blast"
	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/report"
	"parblast/internal/simtime"
)

// Layer probes time direct calls to exported functions on the workload's
// own inputs and rank count. Each repeats its measurement and reports the
// median in milliseconds.

const (
	probeBudget  = 300 * time.Millisecond
	probeMinReps = 5
)

// repeat runs one probe measurement until the budget is spent and returns
// the median of its per-repetition values and the repetition count.
func repeat(budget time.Duration, minReps int, one func() (float64, error)) (float64, int, error) {
	var xs []float64
	deadline := time.Now().Add(budget)
	for len(xs) < minReps || time.Now().Before(deadline) {
		v, err := one()
		if err != nil {
			return 0, 0, err
		}
		xs = append(xs, v)
	}
	return median(xs), len(xs), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeSetQuery times Searcher.NewContext plus Context.SetQuery, per query:
// what every worker pays per query before it can scan.
func probeSetQuery(queries []*parblast.Sequence) (float64, int, error) {
	searcher, err := blast.NewSearcher(blast.DefaultProteinOptions())
	if err != nil {
		return 0, 0, err
	}
	return repeat(probeBudget, probeMinReps, func() (float64, error) {
		t := time.Now()
		for _, q := range queries {
			if err := searcher.NewContext().SetQuery(q); err != nil {
				return 0, err
			}
		}
		return ms(time.Since(t)) / float64(len(queries)), nil
	})
}

// probeFragment times Context.SearchFragment per query over a worker-sized
// fragment: the first 1/(ranks-1) of the database's records.
func probeFragment(e *env, ranks int) (float64, int, error) {
	db := e.search.DB
	recs, err := db.ReadAll(e.cluster.SharedFS())
	if err != nil {
		return 0, 0, fmt.Errorf("fragment probe: %w", err)
	}
	frag := engine.FragmentFromRecords(recs[:max(1, len(recs)/max(1, ranks-1))])
	searcher, err := blast.NewSearcher(blast.DefaultProteinOptions())
	if err != nil {
		return 0, 0, err
	}
	ctx := searcher.NewContext()
	queries := e.search.Queries
	return repeat(probeBudget, probeMinReps, func() (float64, error) {
		var spent time.Duration
		for _, q := range queries {
			if err := ctx.SetQuery(q); err != nil {
				return 0, err
			}
			space := engine.SearchSpaceFor(searcher, q.Len(), db.TotalResidues, db.NumSeqs)
			t := time.Now()
			if _, err := ctx.SearchFragment(frag, space); err != nil {
				return 0, err
			}
			spent += time.Since(t)
		}
		return ms(spent) / float64(len(queries)), nil
	})
}

// probeRounds times rounds of a communication pattern at the workload's
// rank count, on rank 0 and after one warm-up round, so world bring-up is
// excluded. Each pattern must make rank 0 wait for every rank's round.
func probeRounds(ranks, rounds int, round func(r *mpi.Rank)) (float64, int, error) {
	cost := simtime.DefaultCostModel()
	return repeat(probeBudget, 3, func() (float64, error) {
		var spent time.Duration
		_, err := mpi.Run(ranks, cost, func(r *mpi.Rank) error {
			round(r)
			t := time.Now()
			for i := 0; i < rounds; i++ {
				round(r)
			}
			if r.ID() == 0 {
				spent = time.Since(t)
			}
			return nil
		})
		return ms(spent) / float64(rounds), err
	})
}

// probeBarrier: no rank leaves a barrier before every rank has entered it.
func probeBarrier(ranks int) (float64, int, error) {
	return probeRounds(ranks, max(1, 1024/ranks), func(r *mpi.Rank) { r.Barrier() })
}

// probeRing passes a 64-byte token once around the ring of ranks: rank 0
// sends it right and gets it back from its left neighbour.
func probeRing(ranks int) (float64, int, error) {
	const tag = 7
	token := make([]byte, 64)
	return probeRounds(ranks, max(1, 2048/ranks), func(r *mpi.Rank) {
		n, id := r.Size(), r.ID()
		if id == 0 {
			r.Send(1%n, tag, token)
			r.Recv(n-1, tag)
			return
		}
		data, _, _ := r.Recv(id-1, tag)
		r.Send((id+1)%n, tag, data)
	})
}

// probeReportBuild times report.Build on a traced run's result and registry.
func probeReportBuild(w workload, res parblast.Result, reg *parblast.MetricsRegistry) (float64, int, error) {
	info := report.RunInfo{Engine: w.engine.String(), Platform: w.platform.String(), Procs: w.ranks}
	return repeat(probeBudget, probeMinReps, func() (float64, error) {
		t := time.Now()
		report.Build(info, res, reg)
		return ms(time.Since(t)), nil
	})
}
