package mpi

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refTreeTopo is the original map-based tree layout, kept as the reference
// the position-based treeTopo must agree with: the members sorted, the
// root rotated to position 0, and a rank → position map.
type refTreeTopo struct {
	fanout  int
	members []int
	pos     map[int]int
}

func newRefTreeTopo(root, fanout int, members []int) refTreeTopo {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	ri := sort.SearchInts(ms, root)
	ordered := append([]int{root}, ms[:ri]...)
	ordered = append(ordered, ms[ri+1:]...)
	t := refTreeTopo{fanout: fanout, members: ordered, pos: make(map[int]int, len(ordered))}
	for i, m := range ordered {
		t.pos[m] = i
	}
	return t
}

func (t refTreeTopo) children(p int) []int {
	var out []int
	for c := t.fanout*p + 1; c <= t.fanout*p+t.fanout && c < len(t.members); c++ {
		out = append(out, c)
	}
	return out
}

func (t refTreeTopo) depth(p int) int {
	d := 0
	for p > 0 {
		p = (p - 1) / t.fanout
		d++
	}
	return d
}

// TestTreeTopoMatchesReference checks posOf, member, children, depth and
// maxDepth against the map-based layout over random member sets — sorted
// and scrambled caller order, the root first, last and in the middle, and
// lone members — and that the caller's member slice is never modified.
func TestTreeTopoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type tc struct {
		members []int
		root    int
	}
	var cases []tc
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(70)
		if trial%10 == 0 {
			n = 1
		}
		// Distinct ranks drawn from a wider id space, so gaps show.
		members := rng.Perm(3 * n)[:n]
		if trial%2 == 0 {
			sort.Ints(members)
		}
		asc := append([]int(nil), members...)
		sort.Ints(asc)
		for _, root := range []int{asc[0], asc[len(asc)-1], asc[len(asc)/2], members[rng.Intn(n)]} {
			cases = append(cases, tc{members: members, root: root})
		}
	}
	for _, c := range cases {
		for fanout := 2; fanout <= 8; fanout++ {
			name := fmt.Sprintf("root=%d fanout=%d members=%v", c.root, fanout, c.members)
			before := append([]int(nil), c.members...)
			got := newTreeTopo(c.root, fanout, c.members)
			if !slices.Equal(c.members, before) {
				t.Fatalf("%s: caller's member slice modified to %v", name, c.members)
			}
			want := newRefTreeTopo(c.root, fanout, c.members)
			if got.size() != len(want.members) {
				t.Fatalf("%s: size %d, want %d", name, got.size(), len(want.members))
			}
			for p, rank := range want.members {
				if m := got.member(p); m != rank {
					t.Fatalf("%s: member(%d) = %d, want %d", name, p, m, rank)
				}
				if q, ok := got.posOf(rank); !ok || q != p {
					t.Fatalf("%s: posOf(%d) = %d,%v, want %d", name, rank, q, ok, p)
				}
				var kids []int
				for k, end := got.children(p); k < end; k++ {
					kids = append(kids, k)
				}
				if !slices.Equal(kids, want.children(p)) {
					t.Fatalf("%s: children(%d) = %v, want %v", name, p, kids, want.children(p))
				}
				if d := got.depth(p); d != want.depth(p) {
					t.Fatalf("%s: depth(%d) = %d, want %d", name, p, d, want.depth(p))
				}
			}
			wantMax := 0
			for p := range want.members {
				wantMax = max(wantMax, want.depth(p))
			}
			if got.maxDepth() != wantMax {
				t.Fatalf("%s: maxDepth %d, want %d", name, got.maxDepth(), wantMax)
			}
			for _, outsider := range []int{-1, 3 * len(c.members), nonMember(c.members)} {
				if _, ok := got.posOf(outsider); ok {
					t.Fatalf("%s: non-member %d has a position", name, outsider)
				}
			}
		}
	}
}

// nonMember returns the smallest non-negative rank missing from members.
func nonMember(members []int) int {
	seen := make(map[int]bool, len(members))
	for _, m := range members {
		seen[m] = true
	}
	for r := 0; ; r++ {
		if !seen[r] {
			return r
		}
	}
}

// TestTreeTopoRejectsBadInput keeps the constructor's loud failures.
func TestTreeTopoRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		root, fanout int
		members      []int
		want         string
	}{
		{0, 1, []int{0, 1}, "mpi: tree fanout 1 < 2"},
		{0, 2, []int{2, 0, 2}, "mpi: duplicate tree member 2"},
		{0, 2, []int{0, 0}, "mpi: duplicate tree member 0"},
		{5, 2, []int{3, 1, 0}, "mpi: tree root 5 not in members"},
		{0, 2, nil, "mpi: tree root 0 not in members"},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != c.want {
					t.Errorf("newTreeTopo(%d, %d, %v) panicked %q, want %q", c.root, c.fanout, c.members, got, c.want)
				}
			}()
			newTreeTopo(c.root, c.fanout, c.members)
		}()
	}
}

// TestTreeTopoAllocationFree: deriving the layout of an ascending member
// list, finding positions and walking children allocates nothing.
func TestTreeTopoAllocationFree(t *testing.T) {
	members := make([]int, 1024)
	for i := range members {
		members[i] = i
	}
	sink := 0
	allocs := testing.AllocsPerRun(20, func() {
		topo := newTreeTopo(517, 4, members)
		p, _ := topo.posOf(900)
		for c, end := topo.children(p / 8); c < end; c++ {
			sink += topo.member(c)
		}
		sink += topo.depth(p)
	})
	if allocs != 0 {
		t.Fatalf("tree layout allocated %.1f times per call, want 0", allocs)
	}
	_ = sink
}
