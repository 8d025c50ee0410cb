package mpi

// readyHeap is an indexed binary min-heap of the eligible parked ranks,
// ordered by (eligible time, rank id): the scheduler's selection rule,
// ties to the lowest id. Each rank appears at most once; push, lower and
// pop are O(log N).
type readyHeap struct {
	heap []int     // rank ids in heap order
	at   []float64 // per rank: eligible time while queued
	slot []int     // per rank: index into heap, -1 when not queued
}

func newReadyHeap(n int) readyHeap {
	h := readyHeap{heap: make([]int, 0, n), at: make([]float64, n), slot: make([]int, n)}
	for i := range h.slot {
		h.slot[i] = -1
	}
	return h
}

// push queues rank id, which is not queued, as eligible at t.
func (h *readyHeap) push(id int, t float64) {
	h.at[id] = t
	h.slot[id] = len(h.heap)
	h.heap = append(h.heap, id)
	h.up(len(h.heap) - 1)
}

// lower queues rank id at t, or moves it up to t when it is queued later.
func (h *readyHeap) lower(id int, t float64) {
	switch i := h.slot[id]; {
	case i < 0:
		h.push(id, t)
	case t < h.at[id]:
		h.at[id] = t
		h.up(i)
	}
}

// pop removes and returns the rank with the smallest (time, id), or -1
// when no rank is eligible.
func (h *readyHeap) pop() int {
	if len(h.heap) == 0 {
		return -1
	}
	id := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.slot[id] = -1
	if last > 0 {
		h.down(0)
	}
	return id
}

func (h *readyHeap) less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	return h.at[a] < h.at[b] || (h.at[a] == h.at[b] && a < b)
}

func (h *readyHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.slot[h.heap[i]] = i
	h.slot[h.heap[j]] = j
}

func (h *readyHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *readyHeap) down(i int) {
	n := len(h.heap)
	for {
		m := i
		if l := 2*i + 1; l < n && h.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}
