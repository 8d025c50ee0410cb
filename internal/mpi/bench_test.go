package mpi

import (
	"fmt"
	"testing"
)

func BenchmarkPingPong(b *testing.B) {
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(2, testCost(), func(r *Rank) error {
			for k := 0; k < 100; k++ {
				if r.ID() == 0 {
					r.Send(1, 1, payload)
					r.Recv(1, 2)
				} else {
					r.Recv(0, 1)
					r.Send(0, 2, payload)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMasterWorkerFanIn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(16, testCost(), func(r *Rank) error {
			if r.ID() == 0 {
				for k := 0; k < 15*10; k++ {
					r.Recv(AnySource, AnyTag)
				}
				return nil
			}
			for k := 0; k < 10; k++ {
				r.Send(0, 1, make([]byte, 256))
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBarrier runs ten flat barriers per world across rank counts:
// each barrier is one scheduler handoff per rank, so ns/op over ranks
// shows the per-handoff cost.
func BenchmarkBarrier(b *testing.B) {
	for _, n := range []int{16, 128, 1024, 4096} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(n, testCost(), func(r *Rank) error {
					for k := 0; k < 10; k++ {
						r.Barrier()
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTokenRing passes a 64-byte token around 1024 ranks four times:
// every hop parks one rank on a receive and wakes exactly one other.
func BenchmarkTokenRing(b *testing.B) {
	const n, laps = 1024, 4
	token := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		_, err := Run(n, testCost(), func(r *Rank) error {
			next, prev := (r.ID()+1)%n, (r.ID()+n-1)%n
			for k := 0; k < laps; k++ {
				if r.ID() == 0 {
					r.Send(next, 1, token)
					r.Recv(prev, 1)
				} else {
					data, _, _ := r.Recv(prev, 1)
					r.Send(next, 1, data)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeReduce folds one 8-lane vector per rank to rank 0 over a
// 4-ary tree at 1024 ranks, ten times per world.
func BenchmarkTreeReduce(b *testing.B) {
	const n = 1024
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	for i := 0; i < b.N; i++ {
		_, err := Run(n, testCost(), func(r *Rank) error {
			for k := 0; k < 10; k++ {
				if _, _, err := r.TreeReduce(0, DefaultTreeFanout, members, rankPayload(r.ID(), 8), sumCombine); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
