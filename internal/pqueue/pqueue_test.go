package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexedHeapBasic(t *testing.T) {
	h := New(10)
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(3, 5.0)
	h.Push(7, 1.0)
	h.Push(2, 3.0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	if !h.Contains(7) || h.Contains(0) {
		t.Fatal("Contains wrong")
	}
	if id, k := h.Peek(); id != 7 || k != 1.0 {
		t.Fatalf("Peek = %d,%v want 7,1", id, k)
	}
	if id, k := h.Pop(); id != 7 || k != 1.0 {
		t.Fatalf("Pop = %d,%v want 7,1", id, k)
	}
	if id, k := h.Pop(); id != 2 || k != 3.0 {
		t.Fatalf("Pop = %d,%v want 2,3", id, k)
	}
	if id, k := h.Pop(); id != 3 || k != 5.0 {
		t.Fatalf("Pop = %d,%v want 3,5", id, k)
	}
	if h.Len() != 0 {
		t.Fatal("heap should be empty")
	}
}

func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := New(5)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(0, 5) // decrease
	if k := h.Key(0); k != 5 {
		t.Fatalf("Key(0) = %v, want 5", k)
	}
	h.Push(0, 50) // increase is a no-op
	if k := h.Key(0); k != 5 {
		t.Fatalf("Key(0) after no-op increase = %v, want 5", k)
	}
	if id, k := h.Pop(); id != 0 || k != 5 {
		t.Fatalf("Pop = %d,%v want 0,5", id, k)
	}
	if id, _ := h.Pop(); id != 1 {
		t.Fatalf("Pop = %d, want 1", id)
	}
}

func TestIndexedHeapReset(t *testing.T) {
	h := New(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(1) {
		t.Fatal("Reset did not clear heap")
	}
	h.Push(1, 9)
	if id, k := h.Pop(); id != 1 || k != 9 {
		t.Fatalf("heap unusable after Reset: %d,%v", id, k)
	}
}

// TestIndexedHeapSortsRandom checks the heap against sort.Float64s.
func TestIndexedHeapSortsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		h := New(n)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.NormFloat64()
			h.Push(int32(i), keys[i])
		}
		sort.Float64s(keys)
		for i := 0; i < n; i++ {
			_, k := h.Pop()
			if k != keys[i] {
				t.Fatalf("trial %d: pop %d key %v want %v", trial, i, k, keys[i])
			}
		}
	}
}

// TestIndexedHeapDecreaseKeyProperty: after arbitrary pushes and
// decreases, pops come out in non-decreasing key order and each id at
// most once.
func TestIndexedHeapDecreaseKeyProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		ops := 10 + int(opsRaw)
		h := New(n)
		for i := 0; i < ops; i++ {
			h.Push(int32(rng.Intn(n)), rng.Float64()*100)
		}
		seen := make(map[int32]bool)
		last := -1.0
		for h.Len() > 0 {
			id, k := h.Pop()
			if seen[id] {
				return false
			}
			seen[id] = true
			if k < last {
				return false
			}
			last = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatHeapBasic(t *testing.T) {
	var h FloatHeap
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(2, 20)
	h.Push(1, 11) // duplicate key allowed
	if h.Len() != 4 {
		t.Fatalf("Len = %d, want 4", h.Len())
	}
	if k, _ := h.Peek(); k != 1 {
		t.Fatalf("Peek key = %v, want 1", k)
	}
	k1, _ := h.Pop()
	k2, _ := h.Pop()
	k3, v3 := h.Pop()
	k4, v4 := h.Pop()
	if k1 != 1 || k2 != 1 || k3 != 2 || v3 != 20 || k4 != 3 || v4 != 30 {
		t.Fatalf("pop order wrong: %v %v %v/%v %v/%v", k1, k2, k3, v3, k4, v4)
	}
	h.Push(5, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not clear FloatHeap")
	}
}

func TestFloatHeapSortsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		var h FloatHeap
		n := 1 + rng.Intn(300)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.NormFloat64()
			h.Push(keys[i], int64(i))
		}
		sort.Float64s(keys)
		for i := 0; i < n; i++ {
			k, _ := h.Pop()
			if k != keys[i] {
				t.Fatalf("trial %d: pop %d key %v want %v", trial, i, k, keys[i])
			}
		}
	}
}

func BenchmarkIndexedHeapPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1024
	h := New(n)
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			h.Push(int32(j), keys[j])
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}

// swapHeap is the IndexedHeap as it was before sifting through a hole:
// every level swaps two slots. It is the reference for the pop order.
type swapHeap struct {
	ids  []int32
	keys []float64
	pos  []int32
}

func newSwapHeap(n int) *swapHeap {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &swapHeap{pos: pos}
}

func (h *swapHeap) Reset() {
	for _, id := range h.ids {
		h.pos[id] = -1
	}
	h.ids = h.ids[:0]
	h.keys = h.keys[:0]
}

func (h *swapHeap) Push(id int32, key float64) {
	if p := h.pos[id]; p >= 0 {
		if key < h.keys[p] {
			h.keys[p] = key
			h.up(int(p))
		}
		return
	}
	h.ids = append(h.ids, id)
	h.keys = append(h.keys, key)
	h.pos[id] = int32(len(h.ids) - 1)
	h.up(len(h.ids) - 1)
}

func (h *swapHeap) Pop() (int32, float64) {
	id, key := h.ids[0], h.keys[0]
	last := len(h.ids) - 1
	h.swap(0, last)
	h.ids = h.ids[:last]
	h.keys = h.keys[:last]
	h.pos[id] = -1
	if last > 0 {
		h.down(0)
	}
	return id, key
}

func (h *swapHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

func (h *swapHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent] <= h.keys[i] {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *swapHeap) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.keys[l] < h.keys[smallest] {
			smallest = l
		}
		if r < n && h.keys[r] < h.keys[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// Dijkstra's Path and the CH witness search depend on which of several
// equal keys pops first, so the hole-based sift must pop exactly what
// the swap-based one did. Keys come from a handful of values, so most
// comparisons are ties.
func TestIndexedHeapPopOrderMatchesSwapHeap(t *testing.T) {
	const n = 64
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, ref := New(n), newSwapHeap(n)
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(20); {
			case r < 10: // push a new id or decrease-key a queued one
				id, key := int32(rng.Intn(n)), float64(rng.Intn(6))
				h.Push(id, key)
				ref.Push(id, key)
			case r < 19:
				if len(ref.ids) == 0 {
					continue
				}
				gotID, gotKey := h.Pop()
				wantID, wantKey := ref.Pop()
				if gotID != wantID || gotKey != wantKey {
					t.Fatalf("seed %d op %d: Pop = (%d, %v), swap heap pops (%d, %v)",
						seed, op, gotID, gotKey, wantID, wantKey)
				}
			default:
				h.Reset()
				ref.Reset()
			}
			if h.Len() != len(ref.ids) {
				t.Fatalf("seed %d op %d: Len = %d, swap heap holds %d", seed, op, h.Len(), len(ref.ids))
			}
		}
	}
}
