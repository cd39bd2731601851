package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHeapBasic(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	if h.Len() != 0 {
		t.Fatalf("new heap len = %d, want 0", h.Len())
	}
	for _, v := range []int{5, 3, 8, 1, 9, 2} {
		h.Push(v)
	}
	if h.Len() != 6 {
		t.Fatalf("len = %d, want 6", h.Len())
	}
	if got := h.Peek(); got != 1 {
		t.Fatalf("Peek = %d, want 1", got)
	}
	want := []int{1, 2, 3, 5, 8, 9}
	for i, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("len after drain = %d, want 0", h.Len())
	}
}

func TestHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty heap should panic")
		}
	}()
	NewHeap[int](func(a, b int) bool { return a < b }).Pop()
}

func TestHeapPeekEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Peek on empty heap should panic")
		}
	}()
	NewHeap[int](func(a, b int) bool { return a < b }).Peek()
}

func TestHeapReset(t *testing.T) {
	h := NewHeap[int](func(a, b int) bool { return a < b })
	for i := 0; i < 10; i++ {
		h.Push(i)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("len after Reset = %d, want 0", h.Len())
	}
	h.Push(42)
	if got := h.Pop(); got != 42 {
		t.Fatalf("pop after reset = %d, want 42", got)
	}
}

func TestHeapSortsArbitraryInputQuick(t *testing.T) {
	f := func(values []int) bool {
		h := NewHeap[int](func(a, b int) bool { return a < b })
		for _, v := range values {
			h.Push(v)
		}
		out := make([]int, 0, len(values))
		for h.Len() > 0 {
			out = append(out, h.Pop())
		}
		if !sort.IntsAreSorted(out) {
			return false
		}
		want := append([]int(nil), values...)
		sort.Ints(want)
		if len(out) != len(want) {
			return false
		}
		for i := range out {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeapCustomOrdering(t *testing.T) {
	type routeKey struct {
		size     int
		semantic float64
		length   float64
	}
	// The paper's proposed ordering: larger size first, then smaller
	// semantic score, then smaller length.
	less := func(a, b routeKey) bool {
		if a.size != b.size {
			return a.size > b.size
		}
		if a.semantic != b.semantic {
			return a.semantic < b.semantic
		}
		return a.length < b.length
	}
	h := NewHeap(less)
	h.Push(routeKey{1, 0.0, 5})
	h.Push(routeKey{3, 0.5, 100})
	h.Push(routeKey{3, 0.2, 200})
	h.Push(routeKey{2, 0.0, 1})
	h.Push(routeKey{3, 0.2, 150})

	want := []routeKey{
		{3, 0.2, 150},
		{3, 0.2, 200},
		{3, 0.5, 100},
		{2, 0.0, 1},
		{1, 0.0, 5},
	}
	for i, w := range want {
		if got := h.Pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestIndexedHeapBasic(t *testing.T) {
	h := NewIndexedHeap(10)
	h.PushOrDecrease(3, 5.0)
	h.PushOrDecrease(7, 2.0)
	h.PushOrDecrease(1, 9.0)
	if h.Len() != 3 {
		t.Fatalf("len = %d, want 3", h.Len())
	}
	id, prio := h.Pop()
	if id != 7 || prio != 2.0 {
		t.Fatalf("pop = (%d, %v), want (7, 2)", id, prio)
	}
}

func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := NewIndexedHeap(5)
	h.PushOrDecrease(0, 10)
	h.PushOrDecrease(1, 20)
	if changed := h.PushOrDecrease(1, 30); changed {
		t.Error("increasing priority should be a no-op")
	}
	if changed := h.PushOrDecrease(1, 5); !changed {
		t.Error("decrease should report change")
	}
	id, prio := h.Pop()
	if id != 1 || prio != 5 {
		t.Fatalf("pop = (%d, %v), want (1, 5)", id, prio)
	}
}

func TestIndexedHeapDeterministicTieBreak(t *testing.T) {
	h := NewIndexedHeap(10)
	for _, id := range []int32{9, 4, 6, 2} {
		h.PushOrDecrease(id, 1.0)
	}
	want := []int32{2, 4, 6, 9}
	for i, w := range want {
		id, _ := h.Pop()
		if id != w {
			t.Fatalf("tie-break pop %d = %d, want %d", i, id, w)
		}
	}
}

// TestIndexedHeapReset: after Reset no id counts as queued, so pushing
// one again, at any priority, inserts it afresh.
func TestIndexedHeapReset(t *testing.T) {
	h := NewIndexedHeap(2)
	h.PushOrDecrease(0, 1)
	h.PushOrDecrease(1, 2)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("len after Reset = %d, want 0", h.Len())
	}
	if !h.PushOrDecrease(1, 3) || !h.PushOrDecrease(0, 4) {
		t.Fatal("a push after Reset was taken for a rejected increase")
	}
	for _, want := range []struct {
		id   int32
		prio float64
	}{{1, 3}, {0, 4}} {
		if id, prio := h.Pop(); id != want.id || prio != want.prio {
			t.Fatalf("pop = (%d, %v), want (%d, %v)", id, prio, want.id, want.prio)
		}
	}
}

// TestIndexedHeapFillsItsSizeClass: the padding keeps IndexedHeap at 128
// bytes, a size class whose slots never share a cache line.
func TestIndexedHeapFillsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(IndexedHeap{}); got != 128 {
		t.Fatalf("IndexedHeap is %d bytes, want 128", got)
	}
}

func TestIndexedHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty IndexedHeap should panic")
		}
	}()
	NewIndexedHeap(1).Pop()
}

func TestIndexedHeapAgainstReferenceQuick(t *testing.T) {
	// Randomized interleaving of pushes, decreases and pops must always
	// yield the same results as a naive reference implementation.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		const n = 64
		h := NewIndexedHeap(n)
		ref := make(map[int32]float64)
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(3); {
			case k <= 1: // push or decrease
				id := int32(rng.Intn(n))
				p := float64(rng.Intn(100))
				h.PushOrDecrease(id, p)
				if cur, ok := ref[id]; !ok || p < cur {
					ref[id] = p
				}
			default: // pop
				if h.Len() == 0 {
					continue
				}
				id, prio := h.Pop()
				wantPrio, ok := ref[id]
				if !ok {
					t.Fatalf("popped id %d not in reference", id)
				}
				if prio != wantPrio {
					t.Fatalf("popped priority %v, reference %v", prio, wantPrio)
				}
				for otherID, otherPrio := range ref {
					if otherPrio < prio {
						t.Fatalf("popped %v but %d has smaller %v", prio, otherID, otherPrio)
					}
				}
				delete(ref, id)
			}
		}
		if h.Len() != len(ref) {
			t.Fatalf("final sizes differ: heap %d, ref %d", h.Len(), len(ref))
		}
	}
}

func BenchmarkIndexedHeapPushPop(b *testing.B) {
	const n = 1024
	h := NewIndexedHeap(n)
	rng := rand.New(rand.NewSource(1))
	prios := make([]float64, n)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := int32(0); id < n; id++ {
			h.PushOrDecrease(id, prios[id])
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
