package core_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"parblast/internal/core"
	"parblast/internal/engine"
	"parblast/internal/metrics"
	"parblast/internal/mpi"
	"parblast/internal/mpiblast"
	"parblast/internal/simtime"
	"parblast/internal/trace"
	"parblast/internal/vfs"
	"parblast/internal/workload"
)

// clockPinRun is one configuration whose virtual clocks are pinned.
type clockPinRun struct {
	name  string
	mpi   bool // baseline engine instead of pioBLAST
	serve bool
	pio   core.Options
	base  mpiblast.Options
}

// clockPinRuns is the pinned matrix: pio {Run, Serve} × ten protocol
// variants, and the baseline {Run, Serve} × {flat, tree, fetch window}.
// Serve rejects dynamic assignment, adaptive batching and query batching,
// so those variants are pinned for Run only.
func clockPinRuns() []clockPinRun {
	pioVariants := []struct {
		name      string
		opts      core.Options
		serveable bool
	}{
		{"plain", core.Options{}, true},
		{"collective", core.Options{CollectiveRead: true}, true},
		{"prefetch2", core.Options{PrefetchDepth: 2}, true},
		{"dynamic", core.Options{DynamicAssignment: true}, false},
		{"dynamic-prefetch", core.Options{DynamicAssignment: true, PrefetchDepth: 1}, false},
		{"tree", core.Options{TreeMerge: true}, true},
		{"batch4", core.Options{QueryBatch: 4}, false},
		{"membudget", core.Options{MemoryBudgetBytes: 6000}, false},
		{"earlyprune", core.Options{EarlyPrune: true}, true},
		{"independent", core.Options{IndependentOutput: true}, true},
	}
	var runs []clockPinRun
	for _, serve := range []bool{false, true} {
		mode := "run"
		if serve {
			mode = "serve"
		}
		for _, v := range pioVariants {
			if serve && !v.serveable {
				continue
			}
			runs = append(runs, clockPinRun{name: "pio/" + mode + "/" + v.name, serve: serve, pio: v.opts})
		}
		for _, v := range []struct {
			name string
			opts mpiblast.Options
		}{
			{"flat", mpiblast.Options{}},
			{"tree", mpiblast.Options{TreeMerge: true}},
			{"window4", mpiblast.Options{FetchWindow: 4}},
		} {
			runs = append(runs, clockPinRun{name: "mpi/" + mode + "/" + v.name, mpi: true, serve: serve, base: v.opts})
		}
	}
	return runs
}

// clockPinGolden holds one digest per pinned run (see clockDigest). A
// "+crash" entry is the same configuration with the last worker crashing
// mid-search (Run) or mid-stream (Serve). The baseline's serving mode
// rejects fault schedules, so it has no crash entries.
var clockPinGolden = map[string]string{
	"pio/run/plain":                  "cd2cb210bb6af6c28cf7db57",
	"pio/run/plain+crash":            "5e02541442091629a688f01e",
	"pio/run/collective":             "a29c27dd92e7c74772147c53",
	"pio/run/collective+crash":       "4a4d63324b5aaf5cbe27dae9",
	"pio/run/prefetch2":              "841d5dcf78d8d0116af6a0b8",
	"pio/run/prefetch2+crash":        "efdfd39271cce464662b336d",
	"pio/run/dynamic":                "3fbf724a6bdf4d10d7d4b021",
	"pio/run/dynamic+crash":          "3e29b21a45dca4bdc2385fdd",
	"pio/run/dynamic-prefetch":       "7da23244dab974b1a536d913",
	"pio/run/dynamic-prefetch+crash": "38ecb437217f405cb58732b3",
	"pio/run/tree":                   "52bd6d23931401c87236f231",
	"pio/run/tree+crash":             "17c4ef26e5508fb39a703851",
	"pio/run/batch4":                 "d53022dc537aa6f5d9499664",
	"pio/run/batch4+crash":           "0a41270a4b226a30f5e27500",
	"pio/run/membudget":              "e2bb5e290a99b9fd4b6f5529",
	"pio/run/membudget+crash":        "c2ab1ac431405ee343de3867",
	"pio/run/earlyprune":             "1f9d97de241c29ec864ccf72",
	"pio/run/earlyprune+crash":       "3300790e286fa3f002c27c9b",
	"pio/run/independent":            "4fb4e4bfd422c99a2a02c3f7",
	"pio/run/independent+crash":      "7162b4d149c3cf297437bde1",
	"mpi/run/flat":                   "5fbe07471545ad87ace299e5",
	"mpi/run/flat+crash":             "2c077fdf1dba13b7872ccd7a",
	"mpi/run/tree":                   "ab6b5722a302d7479465beb1",
	"mpi/run/tree+crash":             "d3c5f4d9a234ef7479abf8b9",
	"mpi/run/window4":                "d16b501d1879f1e5a1ae1003",
	"mpi/run/window4+crash":          "93f85384fc52fa9b44f11c25",
	"pio/serve/plain":                "4fd1f93597cc5a30c6aaeac7",
	"pio/serve/plain+crash":          "4f7e47673e75fd2e26fe5e6e",
	"pio/serve/collective":           "16138dfcaa2533ac2ea6a7c4",
	"pio/serve/collective+crash":     "4c38bd34689742681d519328",
	"pio/serve/prefetch2":            "d65a1dc5af031940e5f38d52",
	"pio/serve/prefetch2+crash":      "89010409e60076f6fb2b0254",
	"pio/serve/tree":                 "1f6e2066a1fffad48aba1e22",
	"pio/serve/tree+crash":           "c6a94a814eaca3d6c2b3be96",
	"pio/serve/earlyprune":           "dadfffb5f4c2683b9d2892da",
	"pio/serve/earlyprune+crash":     "d877623cfb99c796f2acd4f7",
	"pio/serve/independent":          "5598fe7a33244c9bbddc5067",
	"pio/serve/independent+crash":    "610ca43e7c708052c580a78e",
	"mpi/serve/flat":                 "20aa962d4273f16e2e45be44",
	"mpi/serve/tree":                 "d334ef41e80b4736da9a8d60",
	"mpi/serve/window4":              "16d1f079cfe144542ab51a24",
}

const clockPinFragments = 6

// TestVirtualClocksPinned pins every virtual second of the matrix above:
// any change to a digest is a change to the simulated protocol, not a
// refactoring.
func TestVirtualClocksPinned(t *testing.T) {
	const nprocs = 4
	fx := makeFixture(t, 2000)
	batches := serveArrivals(t, fx, workload.ArrivalConfig{
		Rate: 10, BatchMean: 2, BatchDist: workload.BatchUniform, Seed: 7,
	})
	for _, run := range clockPinRuns() {
		free := runClockPin(t, fx, nprocs, run, batches, nil)
		checkClockPin(t, run.name, free)
		if run.mpi && run.serve {
			continue
		}
		var at float64
		if run.serve {
			mid := len(free.stats.BatchStart) / 2
			at = free.stats.BatchStart[mid] + 0.3*(free.stats.BatchDone[mid]-free.stats.BatchStart[mid])
		} else {
			at = 0.5 * (free.res.Wall - free.res.Phase.Output)
		}
		crashed := runClockPin(t, fx, nprocs, run, batches, []mpi.Fault{{Rank: nprocs - 1, At: at, Kind: mpi.FaultCrash}})
		checkClockPin(t, run.name+"+crash", crashed)
	}
}

// clockPinResult is everything one pinned run produced.
type clockPinResult struct {
	res   engine.RunResult
	stats engine.ServeStats
	out   []byte
	reg   *metrics.Registry
	flows []trace.Flow
	err   error
}

func runClockPin(t *testing.T, fx *fixture, nprocs int, run clockPinRun, batches []workload.Batch, faults []mpi.Fault) clockPinResult {
	t.Helper()
	nodes := fx.newCluster(t, nprocs, vfs.XFSLike(), localDisk(), 0)
	job := *fx.job
	job.Fragments = clockPinFragments
	col := trace.NewCollector()
	cfg := tracedConfig(col)
	cfg.Faults = faults
	cfg.Metrics = metrics.NewRegistry()
	var r clockPinResult
	switch {
	case run.mpi:
		if _, err := mpiblast.PrepareFragments(nodes[0].Shared, "nr", clockPinFragments); err != nil {
			t.Fatal(err)
		}
		if run.serve {
			r.res, r.stats, r.err = mpiblast.Serve(nodes, nprocs, cfg, &job, run.base, batches, 0)
		} else {
			r.res, r.err = mpiblast.Run(nodes, nprocs, cfg, &job, run.base)
		}
	case run.serve:
		r.res, r.stats, r.err = core.Serve(nodes, nprocs, cfg, &job, run.pio, batches, 0)
	default:
		r.res, r.err = core.Run(nodes, nprocs, cfg, &job, run.pio)
	}
	if r.err == nil {
		out, err := nodes[0].Shared.ReadFile(fx.job.OutputPath)
		if err != nil {
			t.Fatal(err)
		}
		r.out = out
	}
	r.reg = cfg.Metrics
	r.flows = col.Flows()
	return r
}

// clockDigest hashes a run's virtual outcome: wall, every rank's finish
// clock and phase buckets, the run's phase split, every query latency, the serve accounting, the
// protocol byte/message counters, the metrics snapshot, the causal flows
// (with their trace-batch ids) and the output file. Floats print in Go's
// shortest round-trip form, so the digest moves with any one-ulp change.
func clockDigest(r clockPinResult) (string, string) {
	var b strings.Builder
	phases := func(p simtime.Breakdown) string {
		return fmt.Sprint(p.Copy, p.Input, p.Search, p.Output, p.Other, p.Total)
	}
	fmt.Fprintf(&b, "err=%v\nwall=%v\nphase=%s\n", r.err, r.res.Wall, phases(r.res.Phase))
	for rank, c := range r.res.Clocks {
		fmt.Fprintf(&b, "clock%d=%v %s idle=%v\n", rank, c.Now(), phases(simtime.BreakdownOf(c)), c.Bucket(simtime.PhaseIdle))
	}
	fmt.Fprintf(&b, "lat=%v\nstats=%+v\n", r.res.QueryLatencies, r.stats)
	fmt.Fprintf(&b, "comm=%d/%d/%d/%d out=%d\n", r.res.CommBytes, r.res.ShuffleBytes,
		r.res.CollectiveBytes, r.res.CommMessages, r.res.OutputBytes)
	summary := b.String()
	snap, err := json.Marshal(r.reg.Snapshot())
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "metrics=%x\n", sha256.Sum256(snap))
	flows := make([]string, len(r.flows))
	for i, f := range r.flows {
		flows[i] = fmt.Sprintf("%+v", f)
	}
	sort.Strings(flows)
	fmt.Fprintf(&b, "flows=%x\n", sha256.Sum256([]byte(strings.Join(flows, "\n"))))
	fmt.Fprintf(&b, "output=%x\n", sha256.Sum256(r.out))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:24], summary
}

func checkClockPin(t *testing.T, name string, r clockPinResult) {
	t.Helper()
	got, summary := clockDigest(r)
	t.Logf("%s %s\n%s", name, got, summary)
	want, ok := clockPinGolden[name]
	if !ok {
		t.Errorf("%s: no golden digest (got %q)", name, got)
		return
	}
	if got != want {
		t.Errorf("%s: virtual-clock digest %s, pinned %s", name, got, want)
	}
}
