// Package pqueue provides an indexed binary min-heap keyed by float64
// priorities. A*, bidirectional Dijkstra, CH witness search and kNN
// traversal run on it, and so does sssp's label-setting search on a
// graph whose weights spread too wide for its bucket queue. Its
// combined push/decrease-key avoids the duplicate-entry growth of
// container/heap-based queues on dense road networks.
package pqueue

// IndexedHeap is a binary min-heap over items identified by dense int32
// ids in [0, n). Each id may appear at most once. The zero value is not
// usable; construct with New.
type IndexedHeap struct {
	ids  []int32   // heap order
	keys []float64 // keys[i] is the priority of ids[i]
	pos  []int32   // pos[id] is the heap slot of id, or -1
}

// New returns a heap admitting ids in [0, n).
func New(n int) *IndexedHeap {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &IndexedHeap{pos: pos}
}

// Len returns the number of queued items.
func (h *IndexedHeap) Len() int { return len(h.ids) }

// Contains reports whether id is currently queued.
func (h *IndexedHeap) Contains(id int32) bool { return h.pos[id] >= 0 }

// Key returns the current priority of a queued id.
// It must only be called when Contains(id) is true.
func (h *IndexedHeap) Key(id int32) float64 { return h.keys[h.pos[id]] }

// Reset removes all items, retaining capacity. It runs in O(len).
func (h *IndexedHeap) Reset() {
	for _, id := range h.ids {
		h.pos[id] = -1
	}
	h.ids = h.ids[:0]
	h.keys = h.keys[:0]
}

// Push inserts id with the given priority, or lowers the priority if id
// is already queued with a larger key (a combined push/decrease-key).
// Pushing a queued id with a larger key is a no-op.
func (h *IndexedHeap) Push(id int32, key float64) {
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

// Pop removes and returns the id with the smallest priority.
// It must only be called when Len() > 0.
func (h *IndexedHeap) Pop() (int32, float64) {
	id, key := h.ids[0], h.keys[0]
	h.pos[id] = -1
	last := len(h.ids) - 1
	if last > 0 {
		h.ids[0], h.keys[0] = h.ids[last], h.keys[last]
		h.pos[h.ids[0]] = 0
	}
	h.ids = h.ids[:last]
	h.keys = h.keys[:last]
	if last > 0 {
		h.down(0)
	}
	return id, key
}

// Peek returns the id with the smallest priority without removing it.
// It must only be called when Len() > 0.
func (h *IndexedHeap) Peek() (int32, float64) { return h.ids[0], h.keys[0] }

// up and down move the item at slot i through a hole: each level costs
// one write of ids, keys and pos, and the item lands once at the end.
// They make the comparisons a swap per level would, in the same order,
// so the pop order (ties included) is the swap heap's.
func (h *IndexedHeap) up(i int) {
	id, key := h.ids[i], h.keys[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent] <= key {
			break
		}
		h.move(i, parent)
		i = parent
	}
	h.place(i, id, key)
}

func (h *IndexedHeap) down(i int) {
	n := len(h.ids)
	id, key := h.ids[i], h.keys[i]
	for {
		l, r := 2*i+1, 2*i+2
		smallest, sk := i, key
		if l < n && h.keys[l] < sk {
			smallest, sk = l, h.keys[l]
		}
		if r < n && h.keys[r] < sk {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.move(i, smallest)
		i = smallest
	}
	h.place(i, id, key)
}

// move copies the item at slot from into slot to.
func (h *IndexedHeap) move(to, from int) {
	h.ids[to], h.keys[to] = h.ids[from], h.keys[from]
	h.pos[h.ids[to]] = int32(to)
}

func (h *IndexedHeap) place(i int, id int32, key float64) {
	h.ids[i], h.keys[i] = id, key
	h.pos[id] = int32(i)
}
