package experiments

import (
	"bytes"
	"testing"
)

// TestMergeScaleShape: every (ranks, fanout) cell produces a row, every
// tree layout is byte-identical to the flat baseline at the same rank
// count, and the hierarchical merge already beats the flat master-ingest
// at a modest rank count.
func TestMergeScaleShape(t *testing.T) {
	lab := DefaultLab()
	ranks := []int{9, 64}
	rows, err := MergeScale(&lab, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ranks) * len(MergeScaleFanouts); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("n=%d fanout=%d: layout differs from flat baseline", r.Ranks, r.Fanout)
		}
		if r.MasterMergeS <= 0 || r.WallS <= 0 || r.OutputBytes <= 0 {
			t.Errorf("n=%d fanout=%d: degenerate row %+v", r.Ranks, r.Fanout, r)
		}
	}
	speedup := MergeSpeedup(rows)
	if speedup[64] <= 1 {
		t.Errorf("tree merge not faster than flat at 64 ranks (speedup %.2fx)", speedup[64])
	}
	var buf bytes.Buffer
	PrintMergeScaleRows(&buf, "mergescale", rows)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}

// TestMergeScaleDeterministic: the synthetic harness is fully seeded; two
// runs of the same cell must agree exactly.
func TestMergeScaleDeterministic(t *testing.T) {
	lab := DefaultLab()
	a, err := MergeScale(&lab, []int{17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MergeScale(&lab, []int{17})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
