package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The abort tests park 512 ranks in mixed states — blocked on a receive
// (some with unmatched mail queued), waiting in a barrier that can never
// complete, finished, yielding — and check that every way a run can fail
// releases every parked goroutine with the run's exact error text.

const abortRanks = 512

// abortRole is what rank i does before the run fails.
func abortRole(i int) int { return i % 3 }

const (
	roleRecv    = 0 // blocks in Recv forever
	roleBarrier = 1 // waits in a barrier the receivers never join
	roleDone    = 2 // returns
)

// parkMixed runs rank i's part of the mixed-state scenario: advance to a
// rank-specific clock, sometimes yield, then park by role. Receivers wait
// on awaitSrc (AnySource when negative) for a tag nobody sends; finishing
// ranks first drop one wrong-tag message in rank 0's inbox.
func parkMixed(r *Rank, awaitSrc int) {
	i := r.ID()
	r.Advance(float64(i) * 1e-4)
	if i%5 == 0 {
		r.Yield()
	}
	switch abortRole(i) {
	case roleRecv:
		r.Recv(awaitSrc, 77)
	case roleBarrier:
		r.Barrier()
	case roleDone:
		if i < 9 {
			r.Send(0, 5, []byte("stray"))
		}
	}
}

// wantDump rebuilds the scheduler's state dump for the mixed scenario:
// state, clock and, for receivers, the pending filter and queue depth.
func wantDump(awaitSrc int, special func(i int) (string, bool)) string {
	var b strings.Builder
	for i := 0; i < abortRanks; i++ {
		if s, ok := special(i); ok {
			b.WriteString(s)
			continue
		}
		t := float64(i) * 1e-4
		switch abortRole(i) {
		case roleRecv:
			queued := 0
			if i == 0 {
				queued = 3 // strays from ranks 2, 5 and 8
			}
			fmt.Fprintf(&b, "rank %d blocked-recv t=%.3f (waiting src=%d tag=77, %d queued); ", i, t, awaitSrc, queued)
		case roleBarrier:
			fmt.Fprintf(&b, "rank %d blocked-collective t=%.3f; ", i, t)
		case roleDone:
			fmt.Fprintf(&b, "rank %d done t=%.3f; ", i, t)
		}
	}
	return b.String()
}

func noSpecial(int) (string, bool) { return "", false }

// checkReleased runs fn and checks the goroutine count comes back down to
// where it started: no rank goroutine is left parked.
func checkReleased(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the run returned (started with %d)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAbortReleasesDeadlock(t *testing.T) {
	checkReleased(t, func() {
		_, err := Run(abortRanks, testCost(), func(r *Rank) error {
			parkMixed(r, AnySource)
			return nil
		})
		want := "mpi: deadlock: " + wantDump(AnySource, noSpecial)
		if err == nil || err.Error() != want {
			t.Fatalf("deadlock error:\n got %.300v\nwant %.300s", err, want)
		}
	})
}

func TestAbortReleasesBodyError(t *testing.T) {
	boom := errors.New("boom")
	const failing = 301 // a barrier-role rank: its barrier peers stay parked
	checkReleased(t, func() {
		_, err := Run(abortRanks, testCost(), func(r *Rank) error {
			if r.ID() == failing {
				r.Advance(1)
				return boom
			}
			parkMixed(r, AnySource)
			return nil
		})
		if !errors.Is(err, boom) || err.Error() != "mpi: rank 301: boom" {
			t.Fatalf("body error: got %v, want mpi: rank 301: boom", err)
		}
	})
}

func TestAbortReleasesUnrecoveredCrash(t *testing.T) {
	const victim = 2 // a finishing-role rank that dies at its first operation
	faults := []Fault{{Rank: victim, At: 0, Kind: FaultCrash}}
	checkReleased(t, func() {
		_, err := RunConfig(abortRanks, Config{Cost: testCost(), Faults: faults}, func(r *Rank) error {
			parkMixed(r, victim)
			return nil
		})
		special := func(i int) (string, bool) {
			switch {
			case i == victim:
				return "rank 2 done t=0.000; ", true
			case i == 0:
				return "rank 0 blocked-recv t=0.000 (waiting src=2 tag=77, 2 queued); ", true
			}
			return "", false
		}
		want := "mpi: unrecovered rank failure (rank 2 crashed at t=0.000000): " + wantDump(victim, special)
		if err == nil || err.Error() != want {
			t.Fatalf("crash error:\n got %.300v\nwant %.300s", err, want)
		}
	})
}
