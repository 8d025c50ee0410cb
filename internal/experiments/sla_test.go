package experiments

import (
	"bytes"
	"testing"
)

// slaTestLab scales the workload down (the -dbseqs 120 smoke size): the
// sweep runs 14 streamed runs plus 14 one-shot oracles per SLA() call,
// and the full DefaultLab database pushes the package past its test
// timeout under -race. Every gate under test (byte-identity, shedding,
// Lindley monotonicity) is size-independent.
func slaTestLab() Lab {
	lab := DefaultLab()
	lab.DB.NumSeqs = 120
	return lab
}

// TestSLAShape: both engines produce the full sweep (4 rate rows, 2 batch
// rows, 1 shed row each), every row passed its internal byte-identity gate
// (SLA errors out otherwise), the saturation row actually shed, and the
// rate sweep's p99 is non-decreasing — the Lindley-recursion gate that
// makes the SLA table deterministic rather than statistical.
func TestSLAShape(t *testing.T) {
	lab := slaTestLab()
	rows, err := SLA(&lab)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 7; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	byEngine := map[string][]SLARow{}
	for _, r := range rows {
		byEngine[r.Engine] = append(byEngine[r.Engine], r)
		if r.Latency == nil {
			t.Fatalf("%s: no latency block", r.Label)
		}
		if r.Latency.P50 <= 0 || r.Latency.P99 < r.Latency.P50 || r.Latency.Max < r.Latency.P99 {
			t.Errorf("%s: malformed percentile block %+v", r.Label, *r.Latency)
		}
		if r.Arrivals != r.Admitted+r.Shed {
			t.Errorf("%s: arrivals %d != admitted %d + shed %d", r.Label, r.Arrivals, r.Admitted, r.Shed)
		}
		if r.Sweep != "shed" && r.Shed != 0 {
			t.Errorf("%s: unbounded queue shed %d batches", r.Label, r.Shed)
		}
	}
	for eng, ers := range byEngine {
		lastP99 := -1.0
		sawShed := false
		for _, r := range ers {
			if r.Sweep == "rate" {
				// 1e-9 absorbs float rounding in done−arrival when adjacent
				// rates tie exactly (no queueing at either).
				if r.Latency.P99 < lastP99-1e-9 {
					t.Errorf("%s: p99 decreased along rate sweep (%.4f after %.4f at rate %g)",
						eng, r.Latency.P99, lastP99, r.Rate)
				}
				lastP99 = r.Latency.P99
			}
			if r.Sweep == "shed" {
				sawShed = true
				if r.Shed == 0 {
					t.Errorf("%s: saturation row shed nothing", eng)
				}
			}
		}
		if !sawShed {
			t.Errorf("%s: no saturation row", eng)
		}
	}
	var buf bytes.Buffer
	printSLARows(&buf, "sla", rows)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}

// TestSLADeterministic: the serving harness is fully seeded; two runs of
// the whole sweep must agree exactly, shedding included.
func TestSLADeterministic(t *testing.T) {
	lab := slaTestLab()
	a, err := SLA(&lab)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SLA(&lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Label != b[i].Label || a[i].Shed != b[i].Shed || a[i].Admitted != b[i].Admitted {
			t.Errorf("row %d admission differs across runs: %+v vs %+v", i, a[i], b[i])
		}
		if *a[i].Latency != *b[i].Latency {
			t.Errorf("row %d latency differs across runs: %+v vs %+v", i, *a[i].Latency, *b[i].Latency)
		}
		if a[i].Result.Wall != b[i].Result.Wall {
			t.Errorf("row %d wall differs across runs: %v vs %v", i, a[i].Result.Wall, b[i].Result.Wall)
		}
	}
}
