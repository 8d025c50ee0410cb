package experiments

import (
	"bytes"
	"testing"

	"parblast/internal/mpiio"
)

// TestIOTuneShape: the tuned-vs-fixed study fills every (profile, pattern)
// cell, its internal gate holds (tuned never regresses fixed anywhere,
// strictly beats it somewhere, byte-identity everywhere), and the learned
// artifact round-trips through the versioned parser.
func TestIOTuneShape(t *testing.T) {
	lab := DefaultLab()
	rows, art, err := IOTune(&lab)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ioTuneProfiles()) * len(ioTunePatterns()); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	strict := 0
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s/%s: tuned bytes differ from fixed", r.Profile, r.Pattern)
		}
		if r.FixedS <= 0 || r.TunedS <= 0 {
			t.Errorf("%s/%s: degenerate row %+v", r.Profile, r.Pattern, r)
		}
		if r.TunedS > r.FixedS*(1+1e-9) {
			t.Errorf("%s/%s: tuned (%.6fs) regresses fixed (%.6fs)", r.Profile, r.Pattern, r.TunedS, r.FixedS)
		}
		if r.TunedS < r.FixedS*(1-1e-9) {
			strict++
		}
		if _, perr := mpiio.ParseStrategy(r.Strategy); perr != nil {
			t.Errorf("%s/%s: unparseable learned strategy %q", r.Profile, r.Pattern, r.Strategy)
		}
	}
	if strict == 0 {
		t.Error("tuner never strictly beat the fixed heuristics")
	}
	if len(art.Entries) != len(rows) {
		t.Errorf("artifact has %d entries, want %d", len(art.Entries), len(rows))
	}
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpiio.ParseHintsArtifact(data); err != nil {
		t.Errorf("learned artifact does not validate: %v", err)
	}
	var buf bytes.Buffer
	printIOTuneRows(&buf, "iotune", rows)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}

// TestIOTuneDeterministic: the study is fully virtual (seeded data,
// simulated clocks); two runs must agree to the byte.
func TestIOTuneDeterministic(t *testing.T) {
	lab := DefaultLab()
	a, artA, err := IOTune(&lab)
	if err != nil {
		t.Fatal(err)
	}
	b, artB, err := IOTune(&lab)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	da, err := artA.Encode()
	if err != nil {
		t.Fatal(err)
	}
	db, err := artB.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Errorf("artifacts differ across runs:\n%s\nvs\n%s", da, db)
	}
}
