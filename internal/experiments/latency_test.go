package experiments

import (
	"math"
	"reflect"
	"testing"
)

// TestLatencyShape: one row per rank count × protocol, each carrying a
// populated percentile block and an exact critical path whose blame tiles
// the path's finish time; a second sweep reproduces every row exactly.
func TestLatencyShape(t *testing.T) {
	lab := slaTestLab()
	rows, err := Latency(&lab)
	if err != nil {
		t.Fatal(err)
	}
	protos := latencyProtocols()
	if want := 2 * len(protos); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for i, r := range rows {
		if p := protos[i%len(protos)]; r.Protocol != p.name || r.Engine != p.eng {
			t.Errorf("row %d is %s/%s, want %s/%s", i, r.Protocol, r.Engine, p.name, p.eng)
		}
		if want := []int{8, 16}[i/len(protos)]; r.Procs != want {
			t.Errorf("row %d: %d procs, want %d", i, r.Procs, want)
		}
		ls := r.Latency
		if ls == nil || ls.Count == 0 || ls.P50 <= 0 || ls.P99 < ls.P50 || ls.Max < ls.P99 || ls.Max > r.Wall {
			t.Errorf("%s p=%d: malformed latency block %+v (wall %v)", r.Protocol, r.Procs, ls, r.Wall)
		}
		p := r.Path
		if p == nil || p.Finish <= 0 || p.Dominant == "" {
			t.Fatalf("%s p=%d: no critical path: %+v", r.Protocol, r.Procs, p)
		}
		if got := p.Blame.Total(); math.Abs(got-(p.Finish-p.Unexplained)) > 1e-9*p.Finish {
			t.Errorf("%s p=%d: blame %v does not tile finish %v (unexplained %v)",
				r.Protocol, r.Procs, got, p.Finish, p.Unexplained)
		}
	}
	again, err := Latency(&lab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Error("a second sweep produced different rows")
	}
}
