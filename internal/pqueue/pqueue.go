// Package pqueue implements the indexed binary min-heap used by the
// ITSPQ search (Algorithm 1 keeps a min-heap of ⟨door, dist⟩ pairs and
// needs decrease-key when a shorter path to an already-enqueued door is
// found).
//
// Keys are non-negative int32 handles (door IDs plus the two sentinel
// handles for the query's source and target points); priorities are
// float64 distances. Items are ordered by (priority, key), so the pop
// order among equal priorities depends only on the keys queued, never
// on the order of pushes.
package pqueue

// Item is one heap entry.
type Item struct {
	Key  int32
	Prio float64
}

// less orders items by priority, then key.
func (a Item) less(b Item) bool {
	return a.Prio < b.Prio || a.Prio == b.Prio && a.Key < b.Key
}

// Heap is an indexed binary min-heap over int32 keys. The zero value is
// not usable; call New. Pushing an existing key updates its priority
// (both decrease and increase are supported).
type Heap struct {
	items []Item
	// pos[key] is the key's index in items plus one; 0 means not queued.
	// It grows on demand, so keys beyond the capacity hint are fine.
	pos []int32
	// maxLen tracks the high-water mark of the heap, reported to the
	// experiment harness as part of the search memory footprint.
	maxLen int
}

// New returns an empty heap with capacity hint n.
func New(n int) *Heap {
	if n < 0 {
		n = 0
	}
	return &Heap{items: make([]Item, 0, n), pos: make([]int32, n)}
}

// Len returns the number of queued items.
func (h *Heap) Len() int { return len(h.items) }

// MaxLen returns the high-water mark of Len since the last Reset.
func (h *Heap) MaxLen() int { return h.maxLen }

// Reset empties the heap, retaining allocated capacity. Only the keys
// still queued have a position to clear: Pop clears its own.
func (h *Heap) Reset() {
	for _, it := range h.items {
		h.pos[it.Key] = 0
	}
	h.items = h.items[:0]
	h.maxLen = 0
}

// Push inserts key with the given priority, or updates the priority if
// the key is already queued.
func (h *Heap) Push(key int32, prio float64) {
	if int(key) >= len(h.pos) {
		h.pos = append(h.pos, make([]int32, int(key)+1-len(h.pos))...)
	}
	if i := int(h.pos[key]) - 1; i >= 0 {
		old := h.items[i].Prio
		h.items[i].Prio = prio
		switch {
		case prio < old:
			h.up(i)
		case prio > old:
			h.down(i)
		}
		return
	}
	h.items = append(h.items, Item{Key: key, Prio: prio})
	h.up(len(h.items) - 1)
	if len(h.items) > h.maxLen {
		h.maxLen = len(h.items)
	}
}

// Pop removes and returns the minimum item: the lowest priority, and
// among equal priorities the lowest key. ok is false when the heap is
// empty.
func (h *Heap) Pop() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.pos[top.Key] = 0
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top, true
}

// Peek returns the minimum item without removing it.
func (h *Heap) Peek() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	return h.items[0], true
}

// Contains reports whether key is queued.
func (h *Heap) Contains(key int32) bool {
	_, ok := h.index(key)
	return ok
}

// Prio returns the queued priority of key.
func (h *Heap) Prio(key int32) (float64, bool) {
	i, ok := h.index(key)
	if !ok {
		return 0, false
	}
	return h.items[i].Prio, true
}

// index returns key's position in items.
func (h *Heap) index(key int32) (int, bool) {
	if key < 0 || int(key) >= len(h.pos) || h.pos[key] == 0 {
		return 0, false
	}
	return int(h.pos[key]) - 1, true
}

// up moves the item at i toward the root while its parent is larger,
// shifting each parent it passes down one level.
func (h *Heap) up(i int) {
	it := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(h.items[parent]) {
			break
		}
		h.place(i, h.items[parent])
		i = parent
	}
	h.place(i, it)
}

// down moves the item at i toward the leaves while a child is smaller,
// shifting the smaller child up one level each step.
func (h *Heap) down(i int) {
	n := len(h.items)
	it := h.items[i]
	for {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && h.items[r].less(h.items[small]) {
			small = r
		}
		if !h.items[small].less(it) {
			break
		}
		h.place(i, h.items[small])
		i = small
	}
	h.place(i, it)
}

// place stores it at index i and records its position.
func (h *Heap) place(i int, it Item) {
	h.items[i] = it
	h.pos[it.Key] = int32(i + 1)
}
