package core

import (
	"fmt"

	"parblast/internal/engine"
	"parblast/internal/mpi"
	"parblast/internal/simtime"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// Serving mode: the cluster boots once — database opened, virtual
// partitions read and RETAINED by the workers — and then processes an
// open-loop stream of query batches (workload.Arrivals) one at a time.
// The master runs the admission queue (engine.Admission): it idles until
// the next admitted batch's arrival, stamps the batch's Seq as the trace
// context and broadcasts the batch's queries. Everything else is the
// one-shot loop (runMaster / runWorker) — which is why the streamed output
// file is byte-identical to a one-shot run over the admitted queries.
//
// Fault tolerance reuses the ready/go rendezvous per batch: a worker
// crash is detected at the next batch's rendezvous, its partitions are
// re-issued to survivors (offsets only, no data movement), and survivors
// both search them for the CURRENT batch and retain them for every later
// one. The batch's latency baseline is its ARRIVAL time, recorded before
// dispatch and never reset by recovery, so percentiles include the full
// recovery cost.

// serveBatchMsg is the per-batch broadcast: the batch's arrival-order id
// (the trace-batch context) and its packed queries. Seq == -1 is the
// end-of-stream sentinel.
type serveBatchMsg struct {
	Seq     int
	Queries []byte // engine.EncodeWireQueries payload; nil on the sentinel
}

// Serve runs the persistent-cluster serving mode over an arrival stream.
// batches must come from workload.Arrivals (non-decreasing arrival times,
// contiguous in-order partition of job.Queries). admitCap bounds the
// admission queue (0 = unbounded); batches arriving while the queue is
// full are deterministically shed (drop-newest) and never dispatched.
//
// The returned RunResult's QueryLatencies hold one entry per ADMITTED
// query in dispatch order, measured from the batch's open-loop arrival to
// the query's merge completion. ServeStats carries per-batch accounting
// and the shed set.
func Serve(nodes []*vfs.Node, nprocs int, cfg mpi.Config, job *engine.Job, opts Options, batches []workload.Batch, admitCap int) (engine.RunResult, engine.ServeStats, error) {
	var stats engine.ServeStats
	s, err := newSession(nodes, nprocs, cfg, job, opts, true)
	if err != nil {
		return engine.RunResult{}, stats, err
	}
	if admitCap < 0 {
		return engine.RunResult{}, stats, fmt.Errorf("core: negative admission cap %d", admitCap)
	}
	// Sanity-check the stream against the job: every batch's queries must
	// be a contiguous in-order slice of job.Queries (what the one-shot
	// oracle runs), and arrivals must be non-decreasing.
	next, prevArrival := 0, 0.0
	for _, b := range batches {
		if b.First != next || len(b.Queries) == 0 {
			return engine.RunResult{}, stats, fmt.Errorf("core: batch %d is not a contiguous in-order partition of the query set", b.Seq)
		}
		if b.Arrival < prevArrival {
			return engine.RunResult{}, stats, fmt.Errorf("core: batch %d arrives before its predecessor", b.Seq)
		}
		next += len(b.Queries)
		prevArrival = b.Arrival
	}
	if next != len(job.Queries) {
		return engine.RunResult{}, stats, fmt.Errorf("core: stream covers %d queries, job has %d", next, len(job.Queries))
	}
	arrivals := make([]float64, len(batches))
	for i, b := range batches {
		arrivals[i] = b.Arrival
	}
	stats.Arrivals = len(batches)
	res, err := s.launch(&stream{batches: batches, adm: engine.NewAdmission(arrivals, admitCap), stats: &stats})
	return res, stats, err
}

// stream is the serving master's admission side: the arrival batches, the
// admission queue over them, the per-batch accounting, and the batch in
// flight with its admission and dispatch clocks.
type stream struct {
	batches []workload.Batch
	adm     *engine.Admission
	stats   *engine.ServeStats

	cur            workload.Batch
	arrival, start float64
}

// next records the dispatch of the batch just merged, if any, then
// dispatches the next admitted batch: when the cluster is drained the
// master idles until it arrives, then stamps its Seq as the trace context
// for every envelope it causes and broadcasts its queries. At the end of
// the stream it records the shed set, broadcasts the sentinel and returns
// false.
func (s *stream) next(r *mpi.Rank) bool {
	now := r.Clock().Now()
	if len(s.cur.Queries) > 0 {
		s.stats.RecordDispatch(s.cur.Seq, s.arrival, s.start, now, len(s.cur.Queries))
		r.Metrics().Counter("engine.batches_served", r.ID()).Inc()
	}
	bi, arrival, ok := s.adm.Next(now)
	if !ok {
		s.stats.ShedSeqs = s.adm.ShedSeqs()
		s.stats.Shed = len(s.stats.ShedSeqs)
		r.Metrics().Counter("engine.batches_shed", r.ID()).Add(int64(s.stats.Shed))
		r.SetPhase(simtime.PhaseOther)
		r.Bcast(0, engine.EncodeGob(serveBatchMsg{Seq: -1}))
		return false
	}
	if arrival > now {
		// Open-loop idle: the cluster is drained, wait for the next
		// arrival on the virtual clock.
		r.SetPhase(simtime.PhaseIdle)
		r.Advance(arrival - now)
	}
	// The admission clock is the batch's ARRIVAL, never its dispatch and
	// never reset under recovery: queueing delay and recovery cost both
	// land in the latency.
	s.cur, s.arrival, s.start = s.batches[bi], arrival, r.Clock().Now()
	r.SetTraceBatch(s.cur.Seq)
	r.SetPhase(simtime.PhaseOther)
	r.Bcast(0, engine.EncodeGob(serveBatchMsg{
		Seq:     s.cur.Seq,
		Queries: engine.EncodeWireQueries(engine.PackQueries(s.cur.Queries)),
	}))
	return true
}
