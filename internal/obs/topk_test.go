package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTopKHeavyHitterRecovery feeds a deterministic skewed stream —
// a few heavy pairs buried in a long tail wider than the table — and
// checks the heavy pairs survive with tallies within the space-saving
// error bound.
func TestTopKHeavyHitterRecovery(t *testing.T) {
	tk := NewTopK(8)
	heavy := []struct {
		key PairKey
		n   int
	}{
		{PairKey{Src: 1, Tgt: 2}, 500},
		{PairKey{Src: 3, Tgt: 4}, 300},
		{PairKey{Src: 5, Tgt: 6}, 150},
	}
	// Interleave heavy hitters with a 64-pair tail (one query each,
	// repeated) so the tail constantly churns the low slots.
	tail := 0
	for round := 0; round < 10; round++ {
		for _, h := range heavy {
			for i := 0; i < h.n/10; i++ {
				tk.Feed(h.key, PairSample{Queries: 1, ExactHits: 1})
			}
		}
		for i := 0; i < 64; i++ {
			tail++
			tk.Feed(PairKey{Src: 100, Tgt: int32(tail % 64)}, PairSample{Queries: 1})
		}
	}
	snap := tk.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot has %d slots, want 8 (bounded by capacity)", len(snap))
	}
	byKey := map[PairKey]PairCount{}
	var total int64
	for _, pc := range snap {
		byKey[pc.Key] = pc
		total += pc.Queries
	}
	fed := int64(500+300+150) + int64(64*10)
	if total > fed {
		t.Fatalf("summed slot queries %d exceed fed queries %d", total, fed)
	}
	for _, h := range heavy {
		pc, ok := byKey[h.key]
		if !ok {
			t.Fatalf("heavy pair %v missing from snapshot %v", h.key, snap)
		}
		if pc.Queries < int64(h.n) {
			t.Errorf("pair %v reports %d queries, want >= true count %d", h.key, pc.Queries, h.n)
		}
		if pc.Queries > int64(h.n)+pc.ErrBound {
			t.Errorf("pair %v reports %d queries, exceeds true count %d + err bound %d",
				h.key, pc.Queries, h.n, pc.ErrBound)
		}
	}
	// Descending order by weight; the top pair is the heaviest.
	if snap[0].Key != heavy[0].key {
		t.Errorf("top slot is %v, want %v", snap[0].Key, heavy[0].key)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Queries > snap[i-1].Queries {
			t.Fatalf("snapshot not sorted descending at %d: %v", i, snap)
		}
	}
}

// TestTopKTallies checks attribute tallies accumulate per pair and are
// zeroed (not mixed) across slot takeovers.
func TestTopKTallies(t *testing.T) {
	tk := NewTopK(2)
	k := PairKey{Src: 1, Tgt: 2}
	tk.Feed(k, PairSample{Queries: 1, ExactHits: 1})
	tk.Feed(k, PairSample{Queries: 1, WindowHits: 1})
	tk.Feed(k, PairSample{Queries: 2, Deduped: 2})
	tk.Feed(k, PairSample{Queries: 1, EngineSearches: 1, Effort: 42})
	snap := tk.Snapshot()
	pc := snap[0]
	if pc.Key != k || pc.Queries != 5 || pc.ExactHits != 1 || pc.WindowHits != 1 ||
		pc.Deduped != 2 || pc.EngineSearches != 1 || pc.Effort != 42 || pc.ErrBound != 0 {
		t.Fatalf("tallies = %+v, want queries=5 exact=1 window=1 deduped=2 searches=1 effort=42 err=0", pc)
	}
	// Fill the second slot lightly, then displace it: the adopter
	// inherits only the query weight, never the attribute tallies.
	tk.Feed(PairKey{Src: 3, Tgt: 4}, PairSample{Queries: 2, ExactHits: 2})
	tk.Feed(PairKey{Src: 5, Tgt: 6}, PairSample{Queries: 1, EngineSearches: 1, Effort: 7})
	for _, pc := range tk.Snapshot() {
		if pc.Key == (PairKey{Src: 5, Tgt: 6}) {
			if pc.Queries != 3 || pc.ErrBound != 2 {
				t.Errorf("adopter queries=%d err=%d, want 3 with bound 2", pc.Queries, pc.ErrBound)
			}
			if pc.ExactHits != 0 || pc.Effort != 7 {
				t.Errorf("adopter inherited attribute tallies: %+v", pc)
			}
		}
	}
}

// TestTopKNilAndEmpty pins nil-receiver and empty-sample behaviour.
func TestTopKNilAndEmpty(t *testing.T) {
	var tk *TopK
	tk.Feed(PairKey{Src: 1, Tgt: 2}, PairSample{Queries: 1})
	if tk.Snapshot() != nil || tk.Len() != 0 || tk.Capacity() != 0 {
		t.Fatal("nil TopK must drop feeds and snapshot empty")
	}
	tk = NewTopK(0)
	if tk.Capacity() != DefaultTopKCapacity {
		t.Fatalf("capacity = %d, want default %d", tk.Capacity(), DefaultTopKCapacity)
	}
	tk.Feed(PairKey{Src: 1, Tgt: 2}, PairSample{})
	if tk.Len() != 0 {
		t.Fatal("empty sample must not occupy a slot")
	}
}

// TestTopKSeen pins the skeleton admission test: a pair is seen only
// with at least one guaranteed query, so the weight a pair inherits on
// takeover never counts.
func TestTopKSeen(t *testing.T) {
	var nilTK *TopK
	if nilTK.Seen(PairKey{Src: 1, Tgt: 2}) {
		t.Fatal("nil TopK reports a pair as seen")
	}
	tk := NewTopK(2)
	a, b, c := PairKey{Src: 1, Tgt: 2}, PairKey{Src: 3, Tgt: 4}, PairKey{Src: 5, Tgt: 6}
	if tk.Seen(a) {
		t.Fatal("untracked pair reported as seen")
	}
	tk.Feed(a, PairSample{Queries: 1, EngineSearches: 1})
	if !tk.Seen(a) {
		t.Fatal("pair not seen after one feed")
	}
	tk.Feed(a, PairSample{Queries: 1})
	tk.Feed(b, PairSample{Queries: 1})
	// c takes over b's slot with a sample that carries no query: it
	// holds only b's inherited weight, which is its error bound.
	tk.Feed(c, PairSample{Effort: 7})
	if tk.Seen(b) {
		t.Fatal("evicted pair still reported as seen")
	}
	if tk.Seen(c) {
		t.Fatal("pair seen on inherited weight alone")
	}
	tk.Feed(c, PairSample{Queries: 1})
	if !tk.Seen(c) {
		t.Fatal("pair not seen after its own query was fed")
	}
	// A takeover that carries a query guarantees that one query.
	d := PairKey{Src: 7, Tgt: 8}
	tk.Feed(d, PairSample{Queries: 1})
	if !tk.Seen(d) {
		t.Fatalf("pair that took over with its own query not seen: %+v", tk.Snapshot())
	}
	if n := testing.AllocsPerRun(500, func() { tk.Seen(a); tk.Seen(b) }); n != 0 {
		t.Fatalf("TopK.Seen allocates %.1f per op, want 0", n)
	}
}

// TestTopKConcurrentFeeders hammers one table from many goroutines
// that feed it and ask Seen while a scraper reads Capacity (run under
// -race) and checks the bounded-memory and summed-weight invariants
// afterwards.
func TestTopKConcurrentFeeders(t *testing.T) {
	tk := NewTopK(16)
	const workers, perWorker = 8, 2000
	// A scraper reads the capacity without ever feeding, so only
	// Capacity's own locking orders its reads after Feed's appends.
	done := make(chan struct{})
	var reads atomic.Int64
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		bad := false
		for {
			select {
			case <-done:
				return
			default:
			}
			if n := tk.Capacity(); n != 16 && !bad {
				bad = true
				t.Errorf("capacity = %d, want 16", n)
			}
			reads.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := PairKey{Src: int32(w % 4), Tgt: int32(i % 23)}
				tk.Seen(k)
				tk.Feed(k, PairSample{Queries: 1, EngineSearches: 1, Effort: int64(i % 7)})
				if i%97 == 0 {
					tk.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	// Let the scraper read at least once after every append.
	for seen := reads.Load(); reads.Load() < seen+2; {
		runtime.Gosched()
	}
	close(done)
	scraper.Wait()
	if tk.Len() > 16 {
		t.Fatalf("table grew to %d slots, capacity 16", tk.Len())
	}
	var total int64
	for _, pc := range tk.Snapshot() {
		total += pc.Queries
	}
	if fed := int64(workers * perWorker); total > fed {
		t.Fatalf("summed slot queries %d exceed fed queries %d", total, fed)
	}
}

// TestTopKFeedZeroAlloc pins the always-on feed path at zero
// allocations per op, in both the tracked-pair and takeover regimes.
func TestTopKFeedZeroAlloc(t *testing.T) {
	tk := NewTopK(8)
	for i := 0; i < 16; i++ { // warm: fill and churn past capacity
		tk.Feed(PairKey{Src: int32(i), Tgt: int32(i)}, PairSample{Queries: 1})
	}
	hot := PairKey{Src: 0, Tgt: 0}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		tk.Feed(hot, PairSample{Queries: 1, ExactHits: 1})
		i++
		tk.Feed(PairKey{Src: 200, Tgt: int32(i % 64)}, PairSample{Queries: 1}) // forces takeovers
	}); n != 0 {
		t.Fatalf("TopK.Feed allocates %.1f per op, want 0 (always-on path must stay allocation-free)", n)
	}
}

// BenchmarkTopKFeed pins the always-on top-K feed at zero allocations
// per op; it self-fails on regression so the CI bench smoke catches it
// without inspecting -benchmem output.
func BenchmarkTopKFeed(b *testing.B) {
	tk := NewTopK(DefaultTopKCapacity)
	for i := 0; i < 2*DefaultTopKCapacity; i++ {
		tk.Feed(PairKey{Src: int32(i), Tgt: int32(i)}, PairSample{Queries: 1})
	}
	s := PairSample{Queries: 1, ExactHits: 1}
	k := PairKey{Src: 0, Tgt: 0}
	if n := testing.AllocsPerRun(100, func() { tk.Feed(k, s) }); n != 0 {
		b.Fatalf("TopK.Feed allocates %.1f per op, want 0 (always-on path must stay allocation-free)", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Feed(k, s)
	}
}
