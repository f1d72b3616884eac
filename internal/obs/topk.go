package obs

import (
	"sort"
	"sync"
)

// DefaultTopKCapacity is the slot count used by NewTopK when the caller
// passes a non-positive capacity. 32 slots recover every pair that holds
// more than ~3% of a skewed stream while keeping the per-feed linear
// scan in the tens of nanoseconds.
const DefaultTopKCapacity = 32

// PairKey identifies one origin/destination partition pair.
type PairKey struct {
	Src int32 `json:"src"`
	Tgt int32 `json:"tgt"`
}

// PairSample is one additive batch of per-pair tallies: every query
// counts once in Queries, and at most one of ExactHits / WindowHits /
// SkeletonHits / Deduped / EngineSearches describes how it was
// answered. Effort is the summed engine work (frontier pops)
// spent on the pair's dedicated searches.
type PairSample struct {
	Queries        int64 `json:"queries"`
	ExactHits      int64 `json:"exact_hits"`
	WindowHits     int64 `json:"window_hits"`
	SkeletonHits   int64 `json:"skeleton_hits"`
	Deduped        int64 `json:"deduped"`
	EngineSearches int64 `json:"engine_searches"`
	Effort         int64 `json:"effort"`
}

func (s *PairSample) add(o PairSample) {
	s.Queries += o.Queries
	s.ExactHits += o.ExactHits
	s.WindowHits += o.WindowHits
	s.SkeletonHits += o.SkeletonHits
	s.Deduped += o.Deduped
	s.EngineSearches += o.EngineSearches
	s.Effort += o.Effort
}

// PairCount is one snapshot row: a pair, its tallies, and the
// space-saving overestimate bound. The reported Queries exceeds the
// pair's true query count by at most ErrBound (the weight it inherited
// when it took over its slot); a pair that never displaced another has
// ErrBound 0 and exact tallies.
type PairCount struct {
	Key PairKey `json:"key"`
	PairSample
	ErrBound int64 `json:"err_bound"`
}

type pairSlot struct {
	key PairKey
	s   PairSample
	err int64
}

// TopK is a bounded space-saving heavy-hitter table over OD partition
// pairs (Metwally et al.): at most Capacity pairs are tracked, a feed
// for an untracked pair displaces the current minimum-weight slot and
// inherits its query count as both starting weight and error bound, so
// the per-pair overestimate never exceeds the displaced minimum. Memory
// is fixed at construction and the feed path performs no allocation —
// slots live in one preallocated array scanned linearly (capacities are
// small), guarded by a mutex so concurrent feeders stay race-free. A
// nil *TopK drops feeds and snapshots empty.
//
// Besides describing the workload, the table decides skeleton-family
// builds: the service pool builds a pair's family only on a miss for a
// pair the table has already Seen, so a pair queried once never pays
// for one.
type TopK struct {
	mu    sync.Mutex
	slots []pairSlot
}

// NewTopK returns a table tracking at most capacity pairs
// (DefaultTopKCapacity if capacity <= 0).
func NewTopK(capacity int) *TopK {
	if capacity <= 0 {
		capacity = DefaultTopKCapacity
	}
	return &TopK{slots: make([]pairSlot, 0, capacity)}
}

// Feed folds one sample for pair k into the table. Allocation-free;
// safe for concurrent use; no-op on a nil receiver or an empty sample.
func (t *TopK) Feed(k PairKey, s PairSample) {
	if t == nil || s == (PairSample{}) {
		return
	}
	t.mu.Lock()
	min := 0
	for i := range t.slots {
		if t.slots[i].key == k {
			t.slots[i].s.add(s)
			t.mu.Unlock()
			return
		}
		if t.slots[i].s.Queries < t.slots[min].s.Queries {
			min = i
		}
	}
	if len(t.slots) < cap(t.slots) {
		t.slots = append(t.slots, pairSlot{key: k, s: s})
		t.mu.Unlock()
		return
	}
	// Space-saving takeover: the new pair adopts the minimum slot,
	// keeping its query weight (the overestimate bound) and zeroing the
	// attribute tallies, which therefore never mix across pairs. The
	// summed Queries over all slots grows by exactly s.Queries per
	// feed, so it never exceeds the queries observed by the feeder.
	sl := &t.slots[min]
	inherited := sl.s.Queries
	*sl = pairSlot{key: k, s: PairSample{Queries: inherited}, err: inherited}
	sl.s.add(s)
	t.mu.Unlock()
}

// Seen reports whether the table holds at least one guaranteed query
// for pair k: the pair is tracked and its weight exceeds the error
// bound it inherited on takeover, so only queries fed for k itself
// count. Allocation-free; safe for concurrent use; false on a nil
// receiver.
func (t *TopK) Seen(k PairKey) bool {
	if t == nil {
		return false
	}
	seen := false
	t.mu.Lock()
	for i := range t.slots {
		if t.slots[i].key == k {
			seen = t.slots[i].s.Queries-t.slots[i].err >= 1
			break
		}
	}
	t.mu.Unlock()
	return seen
}

// Snapshot returns the tracked pairs sorted by descending query weight
// (ties broken by ascending Src, then Tgt, for deterministic scrapes).
func (t *TopK) Snapshot() []PairCount {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]PairCount, len(t.slots))
	for i, sl := range t.slots {
		out[i] = PairCount{Key: sl.key, PairSample: sl.s, ErrBound: sl.err}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Queries != out[j].Queries {
			return out[i].Queries > out[j].Queries
		}
		if out[i].Key.Src != out[j].Key.Src {
			return out[i].Key.Src < out[j].Key.Src
		}
		return out[i].Key.Tgt < out[j].Key.Tgt
	})
	return out
}

// Len returns the number of occupied slots.
func (t *TopK) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := len(t.slots)
	t.mu.Unlock()
	return n
}

// Capacity returns the fixed slot budget (0 on a nil receiver). The
// lock orders the read after any append in Feed, which rewrites the
// slice header.
func (t *TopK) Capacity() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.slots)
}
