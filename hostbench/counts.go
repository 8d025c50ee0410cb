package main

import (
	"strings"

	"parblast"
	"parblast/internal/report"
)

// Registry counts, summed over ranks. They are exact work counts, which a
// host-only change must not move.
type countDef struct {
	name, unit string
	value      func(s parblast.MetricsSnapshot) float64
}

func total(names ...string) func(parblast.MetricsSnapshot) float64 {
	return func(s parblast.MetricsSnapshot) float64 {
		var n int64
		for _, name := range names {
			n += s.CounterTotal(name)
		}
		return float64(n)
	}
}

// ratio is useful over attempted; 0 when nothing was attempted.
func ratio(useful, attempted func(parblast.MetricsSnapshot) float64) func(parblast.MetricsSnapshot) float64 {
	return func(s parblast.MetricsSnapshot) float64 {
		if a := attempted(s); a > 0 {
			return useful(s) / a
		}
		return 0
	}
}

// vfsTotal sums one vfs series over every file system (vfs.<profile>.x).
func vfsTotal(series string) func(parblast.MetricsSnapshot) float64 {
	return func(s parblast.MetricsSnapshot) float64 {
		var n int64
		for _, c := range s.Counters {
			if strings.HasPrefix(c.Name, "vfs.") && strings.HasSuffix(c.Name, "."+series) {
				n += c.Value
			}
		}
		return float64(n)
	}
}

// msgHistogram sums mpi.msg_bytes over ranks: every point-to-point send
// lands in it once, so Total counts messages and Sum counts bytes.
func msgHistogram(bytes bool) func(parblast.MetricsSnapshot) float64 {
	return func(s parblast.MetricsSnapshot) float64 {
		var n float64
		for _, h := range s.Histograms {
			if h.Name != "mpi.msg_bytes" {
				continue
			}
			if bytes {
				n += h.Sum
			} else {
				n += float64(h.Total)
			}
		}
		return n
	}
}

// collectiveOps counts mpi.collective.<op> invocations over ranks.
func collectiveOps(s parblast.MetricsSnapshot) float64 {
	var n int64
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "mpi.collective.") && !strings.HasSuffix(c.Name, "bytes") {
			n += c.Value
		}
	}
	return float64(n)
}

var countDefs = []countDef{
	{"blast.index_words", "count", total("blast.index_words")},
	{"blast.residues_scanned", "count", total("blast.residues_scanned")},
	{"blast.seed_hits", "count", total("blast.seed_hits")},
	{"blast.gapped_extensions", "count", total("blast.gapped_extensions")},
	{"mpi.msgs", "count", msgHistogram(false)},
	{"mpi.bytes", "bytes", msgHistogram(true)},
	{"mpi.collectives", "count", collectiveOps},
	// Independent plus aggregator (two-phase) traffic.
	{"mpiio.read_bytes", "bytes", total("mpiio.read_bytes", "mpiio.agg_read_bytes")},
	{"mpiio.write_bytes", "bytes", total("mpiio.write_bytes", "mpiio.agg_write_bytes")},
	{"mpiio.shuffle_bytes", "bytes", total("mpiio.shuffle_bytes")},
	{"vfs.ops", "count", vfsTotal("ops")},
	{"vfs.read_bytes", "bytes", vfsTotal("read_bytes")},
	{"vfs.write_bytes", "bytes", vfsTotal("write_bytes")},
	{"engine.batches_served", "count", total("engine.batches_served")},
	{"blast.hsps_kept_frac", "ratio",
		ratio(total("blast.hsps_kept"), total("blast.hsps_kept", "blast.hsps_dropped"))},
	{"mpiio.sieve_waste_frac", "ratio",
		ratio(total("mpiio.sieve_waste_bytes"), total("mpiio.agg_read_bytes"))},
	{"engine.cache_hit_frac", "ratio",
		ratio(total("engine.cache_hits"), total("engine.cache_hits", "engine.cache_misses"))},
}

// blameOf reads the exact critical path's blame, in virtual seconds per
// category, from a TraceFlows run's collector.
func blameOf(col *parblast.TraceCollector) map[string]float64 {
	out := map[string]float64{"net": 0, "peer_not_ready": 0, "io": 0, "search": 0, "other": 0}
	p := report.ExactCriticalPath(col)
	if p == nil {
		return out
	}
	out["net"] = p.Blame.Net
	out["peer_not_ready"] = p.Blame.PeerNotReady
	out["io"] = p.Blame.IO
	out["search"] = p.Blame.Search
	out["other"] = p.Blame.Other
	return out
}

var blameNames = []string{"net", "peer_not_ready", "io", "search", "other"}
