package mpi

import (
	"math/rand"
	"testing"
)

// TestReadyHeapMatchesScan drives the heap with random push/lower/pop
// sequences — keys drawn from a small set so ties are common — and checks
// every pop against a linear scan for the smallest (time, id), the rule the
// scheduler's selection must keep.
func TestReadyHeapMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		h := newReadyHeap(n)
		queued := make(map[int]float64)
		for op := 0; op < 400; op++ {
			id := rng.Intn(n)
			key := float64(rng.Intn(8))
			switch rng.Intn(3) {
			case 0:
				if _, ok := queued[id]; !ok {
					h.push(id, key)
					queued[id] = key
				}
			case 1:
				h.lower(id, key)
				if old, ok := queued[id]; !ok || key < old {
					queued[id] = key
				}
			default:
				want := -1
				for i := 0; i < n; i++ {
					k, ok := queued[i]
					if ok && (want < 0 || k < queued[want]) {
						want = i
					}
				}
				if got := h.pop(); got != want {
					t.Fatalf("trial %d op %d: pop = %d, want %d (queued %v)", trial, op, got, want, queued)
				}
				delete(queued, want)
			}
		}
	}
}
