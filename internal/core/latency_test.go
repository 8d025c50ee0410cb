package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"parblast/internal/core"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/report"
	"parblast/internal/trace"
	"parblast/internal/vfs"
)

// tracedConfig wires a collector's span observer and flow adapter into an
// mpi config, the way the parblast CLI's -trace-flows does.
func tracedConfig(col *trace.Collector) mpi.Config {
	return mpi.Config{
		Cost:     testCost(),
		Observer: col.Observer,
		OnFlow: func(f mpi.FlowEvent) {
			col.RecordFlow(trace.Flow{
				Kind: f.Kind, Op: f.Op, ID: f.ID, Batch: f.Batch,
				Src: f.Src, Dst: f.Dst, Bytes: f.Bytes,
				SendAt: f.SendAt, RecvAt: f.RecvAt,
			})
		},
	}
}

// TestTracingZeroVirtualTimeCost is the observability contract: enabling
// span and flow tracing must not move a single virtual clock — output
// bytes, wall time, per-rank finish times, and per-query latencies are all
// byte-identical with tracing on and off.
func TestTracingZeroVirtualTimeCost(t *testing.T) {
	fx := makeFixture(t, 2000)
	opts := core.Options{QueryBatch: 2}

	plain, plainOut := runPio(t, fx, 4, mpi.Config{Cost: testCost()}, opts)
	col := trace.NewCollector()
	traced, tracedOut := runPio(t, fx, 4, tracedConfig(col), opts)

	if !bytes.Equal(plainOut, tracedOut) {
		t.Fatal("tracing changed output bytes")
	}
	if plain.Wall != traced.Wall {
		t.Fatalf("tracing changed wall: %g vs %g", plain.Wall, traced.Wall)
	}
	for rank := range plain.Clocks {
		if a, b := plain.Clocks[rank].Now(), traced.Clocks[rank].Now(); a != b {
			t.Fatalf("rank %d finish moved: %g vs %g", rank, a, b)
		}
	}
	if !reflect.DeepEqual(plain.QueryLatencies, traced.QueryLatencies) {
		t.Fatalf("tracing changed query latencies:\n%v\n%v",
			plain.QueryLatencies, traced.QueryLatencies)
	}
	if len(col.Flows()) == 0 {
		t.Fatal("traced run recorded no flows")
	}
}

// TestQueryLatenciesDeterministic: repeated identical runs and runs with
// different SearchThreads settings yield bit-identical per-query latencies
// (master-clock accounting is independent of host parallelism).
func TestQueryLatenciesDeterministic(t *testing.T) {
	fx := makeFixture(t, 2000)
	opts := core.Options{QueryBatch: 2}

	first, _ := runPio(t, fx, 4, mpi.Config{Cost: testCost()}, opts)
	second, _ := runPio(t, fx, 4, mpi.Config{Cost: testCost()}, opts)
	if !reflect.DeepEqual(first.QueryLatencies, second.QueryLatencies) {
		t.Fatalf("latencies differ across identical runs:\n%v\n%v",
			first.QueryLatencies, second.QueryLatencies)
	}

	threaded := makeFixture(t, 2000)
	threaded.job.Options.SearchThreads = 4
	third, _ := runPio(t, threaded, 4, mpi.Config{Cost: testCost()}, opts)
	if !reflect.DeepEqual(first.QueryLatencies, third.QueryLatencies) {
		t.Fatalf("latencies differ across SearchThreads:\n%v\n%v",
			first.QueryLatencies, third.QueryLatencies)
	}

	if len(first.QueryLatencies) != len(fx.queries) {
		t.Fatalf("%d latencies for %d queries", len(first.QueryLatencies), len(fx.queries))
	}
	for q, lat := range first.QueryLatencies {
		if lat <= 0 {
			t.Fatalf("query %d latency %g not positive", q, lat)
		}
	}
}

// TestMpiblastQueryLatencies: the baseline engine records latencies too, in
// both merge protocols, and the serialized flat merge makes them
// non-decreasing in query order (each query's output waits on all earlier
// ones).
func TestMpiblastQueryLatencies(t *testing.T) {
	for _, tree := range []bool{false, true} {
		fx := makeFixture(t, 2000)
		nodes := fx.newCluster(t, 4, vfs.NFSLike(), localDisk(), 0)
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", 3); err != nil {
			t.Fatal(err)
		}
		job := *fx.job
		res, err := mpiblast.Run(nodes, 4, mpi.Config{Cost: testCost()}, &job,
			mpiblast.Options{TreeMerge: tree})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.QueryLatencies) != len(fx.queries) {
			t.Fatalf("tree=%v: %d latencies for %d queries",
				tree, len(res.QueryLatencies), len(fx.queries))
		}
		for q := 1; q < len(res.QueryLatencies); q++ {
			if res.QueryLatencies[q] < res.QueryLatencies[q-1] {
				t.Fatalf("tree=%v: serialized output latencies decreased at query %d: %v",
					tree, q, res.QueryLatencies)
			}
		}
	}
}

// TestExactPathAgreesWithHeuristic: on a straggler-free run the wait-for
// walk must anchor exactly where the per-rank heuristic attribution does —
// same finish rank, same finish time — and tile it completely with blame.
func TestExactPathAgreesWithHeuristic(t *testing.T) {
	fx := makeFixture(t, 2000)
	col := trace.NewCollector()
	res, _ := runPio(t, fx, 4, tracedConfig(col), core.Options{QueryBatch: 2})

	doc := report.Build(report.RunInfo{Engine: "pio"}, res, nil)
	if doc.CriticalPath == nil {
		t.Fatal("heuristic critical path missing")
	}
	exact := report.ExactCriticalPath(col)
	if exact == nil {
		t.Fatal("exact critical path missing")
	}
	if exact.FinishRank != doc.CriticalPath.Rank {
		t.Fatalf("finish rank disagrees: exact %d vs heuristic %d",
			exact.FinishRank, doc.CriticalPath.Rank)
	}
	if exact.Finish != doc.CriticalPath.Finish {
		t.Fatalf("finish time disagrees: exact %g vs heuristic %g",
			exact.Finish, doc.CriticalPath.Finish)
	}
	if total := exact.Blame.Total(); total <= 0 ||
		total > exact.Finish-exact.Unexplained+1e-9 ||
		total < exact.Finish-exact.Unexplained-1e-9 {
		t.Fatalf("blame %g does not tile finish %g (unexplained %g)",
			total, exact.Finish, exact.Unexplained)
	}
	if exact.DroppedFlows != 0 {
		t.Fatalf("run produced %d malformed flows", exact.DroppedFlows)
	}
}
