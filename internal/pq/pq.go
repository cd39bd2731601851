// Package pq provides the priority queues used across the SkySR engine:
// a generic binary min-heap for route queues, and an indexed heap with
// decrease-key keyed by dense integer ids for the Dijkstra kernel of
// internal/dijkstra, which runs every graph search of a query, the
// modified Dijkstra of Algorithm 2 included.
//
// The paper depends on two route-queue orderings (§5.3.2): the conventional
// distance-based order and the proposed size-descending / semantic-ascending
// / length-ascending order. Both are expressed as Less functions over the
// generic heap so the benchmark harness can swap them without touching the
// search code.
package pq

// Heap is a binary min-heap ordered by the Less function supplied at
// construction. The zero value is not usable; call NewHeap.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds an item to the heap.
func (h *Heap[T]) Push(item T) {
	h.items = append(h.items, item)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum item. It panics if the heap is empty.
func (h *Heap[T]) Pop() T {
	n := len(h.items)
	if n == 0 {
		panic("pq: Pop on empty heap")
	}
	top := h.items[0]
	h.items[0] = h.items[n-1]
	var zero T
	h.items[n-1] = zero // release reference for GC
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top
}

// Peek returns the minimum item without removing it. It panics if the heap
// is empty.
func (h *Heap[T]) Peek() T {
	if len(h.items) == 0 {
		panic("pq: Peek on empty heap")
	}
	return h.items[0]
}

// Reset discards all items but keeps the allocated storage for reuse.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// IndexedHeap is a min-heap of (id, priority) pairs supporting DecreaseKey,
// keyed by dense non-negative integer ids (vertex indices). It is the
// workhorse of the Dijkstra kernel: Push/DecreaseKey/Pop are all
// O(log n) and id lookup is O(1) via a position table.
//
// The heap is 4-ary rather than binary: Dijkstra's decrease-key workload
// performs far more up-sifts (every relaxation) than down-sifts (one per
// pop), and a wider node halves the up-sift depth while keeping the four
// child slots of a down-sift step in one or two cache lines. The generic
// route Heap stays binary — route queues are small and pop-dominated. See
// BenchmarkHeapDijkstra for the comparison.
type IndexedHeap struct {
	ids  []int32   // heap slot -> id
	prio []float64 // heap slot -> priority
	pos  []int32   // id -> heap slot, -1 when absent
	// Every push and pop writes the slice headers above. The padding puts
	// the struct in the 128-byte size class, whose slots start on cache
	// line boundaries, so the heaps of concurrent workers (the category
	// index's build workers, parallel searchers) never share a line.
	_ [56]byte
}

// NewIndexedHeap returns an indexed heap able to hold ids in [0, capacity).
func NewIndexedHeap(capacity int) *IndexedHeap {
	pos := make([]int32, capacity)
	for i := range pos {
		pos[i] = -1
	}
	return &IndexedHeap{pos: pos}
}

// Len returns the number of queued ids.
func (h *IndexedHeap) Len() int { return len(h.ids) }

// PushOrDecrease inserts id with the given priority, or lowers its priority
// if it is already queued with a larger one. It reports whether the queue
// changed.
func (h *IndexedHeap) PushOrDecrease(id int32, priority float64) bool {
	if p := h.pos[id]; p >= 0 {
		if priority >= h.prio[p] {
			return false
		}
		h.prio[p] = priority
		h.up(int(p))
		return true
	}
	h.ids = append(h.ids, id)
	h.prio = append(h.prio, priority)
	h.pos[id] = int32(len(h.ids) - 1)
	h.up(len(h.ids) - 1)
	return true
}

// Pop removes and returns the id with the smallest priority. Ties are broken
// by smaller id for determinism. It panics if the heap is empty.
func (h *IndexedHeap) Pop() (int32, float64) {
	if len(h.ids) == 0 {
		panic("pq: Pop on empty IndexedHeap")
	}
	id, prio := h.ids[0], h.prio[0]
	last := len(h.ids) - 1
	h.swap(0, last)
	h.pos[id] = -1
	h.ids = h.ids[:last]
	h.prio = h.prio[:last]
	if last > 0 {
		h.down(0)
	}
	return id, prio
}

// Reset empties the heap, keeping capacity. The cost is proportional to the
// number of queued items, not the id capacity.
func (h *IndexedHeap) Reset() {
	for _, id := range h.ids {
		h.pos[id] = -1
	}
	h.ids = h.ids[:0]
	h.prio = h.prio[:0]
}

func (h *IndexedHeap) lessAt(i, j int) bool {
	if h.prio[i] != h.prio[j] {
		return h.prio[i] < h.prio[j]
	}
	return h.ids[i] < h.ids[j]
}

func (h *IndexedHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

// arity is the branching factor of the indexed heap.
const arity = 4

func (h *IndexedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / arity
		if !h.lessAt(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedHeap) down(i int) {
	n := len(h.ids)
	for {
		first := arity*i + 1
		if first >= n {
			return
		}
		last := first + arity
		if last > n {
			last = n
		}
		smallest := first
		for j := first + 1; j < last; j++ {
			if h.lessAt(j, smallest) {
				smallest = j
			}
		}
		if !h.lessAt(smallest, i) {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
