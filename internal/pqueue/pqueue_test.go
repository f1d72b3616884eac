package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	h := New(8)
	input := []Item{{1, 5}, {2, 3}, {3, 8}, {4, 1}, {5, 9}, {6, 2}}
	for _, it := range input {
		h.Push(it.Key, it.Prio)
	}
	if h.Len() != len(input) {
		t.Fatalf("Len = %d", h.Len())
	}
	want := []int32{4, 6, 2, 1, 3, 5}
	for i, wk := range want {
		it, ok := h.Pop()
		if !ok {
			t.Fatalf("Pop %d: empty", i)
		}
		if it.Key != wk {
			t.Errorf("Pop %d = key %d, want %d", i, it.Key, wk)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Error("Pop on empty should fail")
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(4)
	h.Push(1, 10)
	h.Push(2, 20)
	h.Push(3, 30)
	h.Push(3, 5) // decrease
	it, _ := h.Pop()
	if it.Key != 3 || it.Prio != 5 {
		t.Errorf("after decrease: %+v", it)
	}
	h.Push(1, 50) // increase
	it, _ = h.Pop()
	if it.Key != 2 {
		t.Errorf("after increase: %+v", it)
	}
	if p, ok := h.Prio(1); !ok || p != 50 {
		t.Errorf("Prio(1) = %v,%v", p, ok)
	}
	if !h.Contains(1) || h.Contains(99) {
		t.Error("Contains wrong")
	}
}

func TestPeekAndReset(t *testing.T) {
	h := New(0)
	if _, ok := h.Peek(); ok {
		t.Error("Peek on empty")
	}
	h.Push(7, 7)
	h.Push(8, 3)
	if it, ok := h.Peek(); !ok || it.Key != 8 {
		t.Errorf("Peek = %+v,%v", it, ok)
	}
	if h.Len() != 2 {
		t.Error("Peek must not pop")
	}
	if h.MaxLen() != 2 {
		t.Errorf("MaxLen = %d", h.MaxLen())
	}
	h.Reset()
	if h.Len() != 0 || h.MaxLen() != 0 || h.Contains(7) {
		t.Error("Reset incomplete")
	}
	h.Push(1, 1)
	if h.Len() != 1 {
		t.Error("heap unusable after Reset")
	}
}

// TestResetAfterPartialPops pins the reuse contract of the position
// index: keys far beyond the capacity hint are indexed, and a Reset
// after some pops leaves no stale position behind, so pushing a key
// that was queued before the Reset inserts it instead of updating a
// slot that no longer holds it.
func TestResetAfterPartialPops(t *testing.T) {
	h := New(2)
	for _, k := range []int32{1000, 3, 70, 5} {
		h.Push(k, float64(k))
	}
	if it, _ := h.Pop(); it.Key != 3 {
		t.Fatalf("Pop = %+v, want key 3", it)
	}
	h.Reset()
	for _, k := range []int32{3, 5, 70, 1000} {
		if h.Contains(k) {
			t.Errorf("key %d still queued after Reset", k)
		}
	}
	h.Push(1000, 2)
	h.Push(70, 1)
	if h.Len() != 2 {
		t.Fatalf("Len = %d after re-pushing two formerly queued keys, want 2", h.Len())
	}
	for _, want := range []Item{{70, 1}, {1000, 2}} {
		if it, ok := h.Pop(); !ok || it != want {
			t.Errorf("Pop = %+v,%v, want %+v", it, ok, want)
		}
	}
}

func TestHeapSortProperty(t *testing.T) {
	f := func(prios []float64) bool {
		h := New(len(prios))
		for i, p := range prios {
			h.Push(int32(i), p)
		}
		var got []float64
		for {
			it, ok := h.Pop()
			if !ok {
				break
			}
			got = append(got, it.Prio)
		}
		if len(got) != len(prios) {
			return false
		}
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomisedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := New(0)
	ref := map[int32]float64{}
	for op := 0; op < 5000; op++ {
		switch {
		case rng.Float64() < 0.6 || len(ref) == 0:
			k := int32(rng.Intn(100))
			p := rng.Float64() * 1000
			h.Push(k, p)
			ref[k] = p
		default:
			it, ok := h.Pop()
			if !ok {
				t.Fatal("heap empty but reference non-empty")
			}
			wantKey, wantPrio := int32(-1), 0.0
			for k, p := range ref {
				if wantKey == -1 || p < wantPrio {
					wantKey, wantPrio = k, p
				}
			}
			if it.Prio != wantPrio {
				t.Fatalf("op %d: popped prio %v, want %v", op, it.Prio, wantPrio)
			}
			delete(ref, it.Key)
		}
		if h.Len() != len(ref) {
			t.Fatalf("op %d: len %d vs ref %d", op, h.Len(), len(ref))
		}
	}
}

// TestEqualPrioritiesPopByKey: with few distinct priorities, pushes
// and priority updates in random order still pop in (priority, key)
// order.
func TestEqualPrioritiesPopByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		h := New(0)
		ref := map[int32]float64{}
		for op := 0; op < 200; op++ {
			k, p := int32(rng.Intn(64)), float64(rng.Intn(4))
			h.Push(k, p)
			ref[k] = p
		}
		want := make([]Item, 0, len(ref))
		for k, p := range ref {
			want = append(want, Item{Key: k, Prio: p})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
		for i, w := range want {
			if it, _ := h.Pop(); it != w {
				t.Fatalf("trial %d pop %d = %+v, want %+v", trial, i, it, w)
			}
		}
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prios := make([]float64, 1024)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := New(len(prios))
		for k, p := range prios {
			h.Push(int32(k), p)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
