package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// heapSampler polls the live heap from its own goroutine while a timed
// call runs and keeps the maximum. The live heap only changes when a GC
// cycle ends, so a short period catches every value it takes.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	heapPeriod     = time.Millisecond
)

func readLiveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(heapPeriod)
		defer tick.Stop()
		for {
			if v := readLiveHeap(s); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	s := []metrics.Sample{{Name: liveHeapMetric}}
	if v := readLiveHeap(s); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// hostCost is what one timed call cost the host.
type hostCost struct {
	seconds float64
	allocMB float64
	peakMB  float64
	outcome outcome
	callErr error
}

const mb = 1 << 20

// timeCall runs fn as one timed call: a GC first, so the live heap holds
// only the env, then wall time, the TotalAlloc delta and the sampled peak
// live heap over the call. A non-nil profiler brackets the call.
func timeCall(fn func() (outcome, error), prof *profiler) hostCost {
	runtime.GC()
	if prof != nil {
		prof.begin()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hs := startHeapSampler()
	t := time.Now()
	out, err := fn()
	d := time.Since(t)
	peak := hs.finish()
	runtime.ReadMemStats(&after)
	if prof != nil {
		prof.end()
	}
	return hostCost{
		seconds: d.Seconds(),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / mb,
		peakMB:  float64(peak) / mb,
		outcome: out,
		callErr: err,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
