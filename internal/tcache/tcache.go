// Package tcache is the temporal result cache of the serving layer,
// holding two complementary stores, both keyed by the (source
// partition, target partition) pair of the answers they hold:
//
//   - Skeleton families (the primary, point-free index): per pair and
//     per checkpoint slot, a core.SkeletonFamily of door-to-door
//     chains with the point-dependent legs factored out, so one
//     stored family answers *any* endpoints inside the pair — the
//     cross-space complement (ROADMAP open item 1).
//   - Validity windows (the exact-point fast path): per exact
//     (source point, target point, speed) triple, paths keyed by the
//     departure interval over which the engine's answer is provably
//     unchanged (core.Engine.AnswerWindow) — the cross-time
//     complement. An exact hit skips even the composition arithmetic,
//     so it probes first.
//
// The paper's whole premise is that indoor shortest paths vary with
// departure time; the flip side is that between topology checkpoints
// they do not vary at all, and within one slot they do not vary with
// the endpoints' exact coordinates beyond the first and last legs. A
// time-sweep workload reuses one search across a window; a jittered
// crowd leaving one hot lobby reuses one family across all of its
// members' distinct points.
//
// Layout: buckets keyed by the partition pair, each holding the
// pair's skeleton families (at most one per slot, sorted by window
// opening, pairwise disjoint) and, per exact point triple, a series
// of windows sorted by opening time and pairwise disjoint, so either
// lookup is one map step plus a short ordered scan. One store serves
// one engine method (service.Pool keeps one pool, and so one store,
// per method).
//
// Invariants the serving layer relies on:
//
//   - stored entries and families are immutable once inserted; Probe
//     and ProbeFamily hand the same pointers to many goroutines (the
//     door/partition slices are shared into materialised paths, which
//     are immutable by the repository-wide path contract);
//   - windows are derived for no-waiting paths only, and a served
//     answer must recompute arrival times from Dists for the query's
//     own departure — never reuse the original instants; likewise a
//     family answer must be recomposed per query
//     (core.ComposeSkeletonPath), never replayed;
//   - a store never drops an entry except by capacity eviction; a
//     schedule swap must retire the whole store (service swaps the
//     backend, store included), which also strands any insert still in
//     flight on the old graph in the unreachable old store.
//
// Accounting: Len/Cap/Evictions cover point windows, FamLen/
// FamEvictions cover skeleton families. The two populations share the
// same capacity *value* but are budgeted independently — families are
// far fewer and far heavier than windows, so one knob with two
// ledgers keeps both bounded without starving either.
package tcache

import (
	"sort"
	"sync"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// DefaultCapacity bounds the number of stored windows (and,
// separately, stored families) when NewStore is given zero.
const DefaultCapacity = 4096

// Key addresses one bucket: the OD partition pair of the cached paths.
type Key struct {
	Src, Tgt model.PartitionID
}

// PointKey identifies one exact query family inside a bucket: the
// endpoint geometry and walking speed that all departures of a window
// share. Two queries differing in any of these can have different
// answers at the same departure, so they never share windows.
type PointKey struct {
	Src, Tgt geom.Point
	Speed    float64
}

// Entry is one cached answer with its departure-time validity window.
// All fields are read-only after insertion.
type Entry struct {
	// Window is the departure interval (core.Engine.AnswerWindow) the answer
	// holds for: same doors, partitions and length as a fresh search.
	Window temporal.Interval
	// Doors and Partitions are the cached path's sequences, shared as-is
	// into every materialised path.
	Doors      []model.DoorID
	Partitions []model.PartitionID
	// Length is the walked length in metres (departure-independent).
	Length float64
	// Dists is the cumulative walked distance at each door
	// (core.Engine.PathDistances): a served answer's arrivals are
	// departure + Dists[i]/Speed, reproducing engine arithmetic bit for
	// bit.
	Dists []float64
	// Stats are the search statistics of the run that produced the
	// entry, reported on every window hit (mirroring exact-cache hits).
	Stats core.SearchStats
}

// FamilyEntry is one stored skeleton family with the statistics of the
// search whose miss produced it. All fields are read-only after
// insertion; Window duplicates Fam.Window so probes never chase the
// inner pointer.
type FamilyEntry struct {
	// Window is the departure interval the family's frozen topology
	// holds for (the slot; the whole day for a static-method family).
	Window temporal.Interval
	// Fam is the immutable chain table (core.ComposeSkeletonPath input).
	Fam *core.SkeletonFamily
	// Stats are the search statistics of the engine run whose miss
	// triggered the family build, reported on every skeleton hit.
	Stats core.SearchStats
}

// series is the per-PointKey window list: sorted by Window.Open and
// pairwise disjoint, the invariant that makes lookups a binary search.
type series struct {
	entries []*Entry
}

// find returns the entry whose window contains at, if any.
func (s *series) find(at temporal.TimeOfDay) (*Entry, bool) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Window.Close > at })
	if i < len(s.entries) && s.entries[i].Window.Contains(at) {
		return s.entries[i], true
	}
	return nil, false
}

// bucket holds everything stored for one partition pair: the skeleton
// families (primary, point-free index) and the exact-point window
// series (fast path).
type bucket struct {
	points map[PointKey]*series
	skels  []*FamilyEntry
}

func (b *bucket) empty() bool { return len(b.points) == 0 && len(b.skels) == 0 }

// findFam returns the family whose window contains at, if any. Linear:
// a pair stores at most one family per checkpoint slot and hot pairs
// touch a handful of slots.
func (b *bucket) findFam(at temporal.TimeOfDay) (*FamilyEntry, bool) {
	for _, fe := range b.skels {
		if fe.Window.Contains(at) {
			return fe, true
		}
	}
	return nil, false
}

// Store is a bounded, concurrency-safe temporal cache. The zero value
// is not usable; construct with NewStore.
type Store struct {
	mu         sync.RWMutex
	cap        int
	size       int   // total point windows across all series
	evicted    int64 // windows shed by capacity eviction
	famSize    int   // total skeleton families across all buckets
	famEvicted int64 // families shed by capacity eviction
	buckets    map[Key]*bucket
}

// NewStore builds a store holding at most capacity windows and,
// independently, at most capacity skeleton families (0 means
// DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{cap: capacity, buckets: make(map[Key]*bucket)}
}

// MissKind says why a probe found nothing — the decision-provenance
// split between "we never cached this" and "we cached it, but not for
// this departure".
type MissKind uint8

const (
	// MissNone: the probe hit.
	MissNone MissKind = iota
	// MissFamilyAbsent: nothing is stored for the probed identity (the
	// point triple's series, or the pair's slot family, was never
	// inserted).
	MissFamilyAbsent
	// MissOutsideWindows: the probed identity exists but the departure
	// time falls outside every stored validity window.
	MissOutsideWindows
)

// Probe returns the entry whose validity window contains the departure
// at, if one is stored for the query family, and otherwise why it
// missed. A hit returns (entry, MissNone).
func (s *Store) Probe(k Key, pk PointKey, at temporal.TimeOfDay) (*Entry, MissKind) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[k]
	if !ok {
		return nil, MissFamilyAbsent
	}
	ser, ok := b.points[pk]
	if !ok {
		return nil, MissFamilyAbsent
	}
	if e, ok := ser.find(at); ok {
		return e, MissNone
	}
	return nil, MissOutsideWindows
}

// ProbeFamily returns the pair's skeleton family covering departure
// at, with the same miss vocabulary as Probe. The returned entry is
// immutable and shared; the caller composes it per query and must
// fall back to an engine when composition refuses.
func (s *Store) ProbeFamily(k Key, at temporal.TimeOfDay) (*FamilyEntry, MissKind) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[k]
	if !ok || len(b.skels) == 0 {
		return nil, MissFamilyAbsent
	}
	if fe, ok := b.findFam(at); ok {
		return fe, MissNone
	}
	return nil, MissOutsideWindows
}

// Insert stores an entry, keeping the series sorted and disjoint. A
// window overlapping an already-stored one is dropped (both are proven
// correct over their windows; serving either is sound, and concurrent
// searches in one slot derive identical windows anyway), as is an
// empty window. Reports whether the entry was stored.
func (s *Store) Insert(k Key, pk PointKey, e *Entry) bool {
	if e == nil || e.Window.Duration() <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[k]
	if !ok {
		b = &bucket{points: make(map[PointKey]*series)}
		s.buckets[k] = b
	}
	ser, ok := b.points[pk]
	if !ok {
		ser = &series{}
		b.points[pk] = ser
	}
	i := sort.Search(len(ser.entries), func(i int) bool { return ser.entries[i].Window.Open >= e.Window.Open })
	if i > 0 && ser.entries[i-1].Window.Overlaps(e.Window) {
		return false
	}
	if i < len(ser.entries) && ser.entries[i].Window.Overlaps(e.Window) {
		return false
	}
	ser.entries = append(ser.entries, nil)
	copy(ser.entries[i+1:], ser.entries[i:])
	ser.entries[i] = e
	s.size++
	for s.size > s.cap {
		s.evictLocked(k, e)
	}
	return true
}

// InsertFamily stores a skeleton family for its pair, keeping the
// family list sorted by opening and pairwise disjoint. A family whose
// window overlaps a stored one is dropped — concurrent misses in one
// slot build identical families, so first-in wins — as is an empty
// one. Reports whether the family was stored.
func (s *Store) InsertFamily(k Key, fe *FamilyEntry) bool {
	if fe == nil || fe.Fam == nil || fe.Window.Duration() <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[k]
	if !ok {
		b = &bucket{points: make(map[PointKey]*series)}
		s.buckets[k] = b
	}
	i := sort.Search(len(b.skels), func(i int) bool { return b.skels[i].Window.Open >= fe.Window.Open })
	if i > 0 && b.skels[i-1].Window.Overlaps(fe.Window) {
		return false
	}
	if i < len(b.skels) && b.skels[i].Window.Overlaps(fe.Window) {
		return false
	}
	b.skels = append(b.skels, nil)
	copy(b.skels[i+1:], b.skels[i:])
	b.skels[i] = fe
	s.famSize++
	for s.famSize > s.cap {
		s.evictFamilyLocked(k, fe)
	}
	return true
}

// evictLocked sheds point windows, preferring a bucket other than keep
// (the bucket just written to), whole-bucket first; when keep is the
// only bucket holding windows it drops keep's windows other than keepE
// instead, so a hot OD pair larger than the capacity still serves its
// latest window. Skeleton families are untouched — they have their own
// ledger and evictor.
func (s *Store) evictLocked(keep Key, keepE *Entry) {
	var keepB *bucket
	for k, b := range s.buckets {
		if k == keep {
			keepB = b
			continue
		}
		if len(b.points) == 0 {
			continue
		}
		for pk, ser := range b.points {
			s.size -= len(ser.entries)
			s.evicted += int64(len(ser.entries))
			delete(b.points, pk)
		}
		s.dropEmptyLocked(k)
		return
	}
	if keepB == nil {
		return
	}
	for pk, ser := range keepB.points {
		for i := 0; i < len(ser.entries); {
			if ser.entries[i] == keepE {
				i++
				continue
			}
			copy(ser.entries[i:], ser.entries[i+1:])
			ser.entries[len(ser.entries)-1] = nil // release for GC
			ser.entries = ser.entries[:len(ser.entries)-1]
			s.size--
			s.evicted++
			if s.size <= s.cap {
				s.dropEmptyPointLocked(keep, pk)
				return
			}
		}
		s.dropEmptyPointLocked(keep, pk)
	}
}

// evictFamilyLocked sheds one skeleton family, preferring a bucket
// other than keep; within keep it spares keepFE (the family just
// inserted) so a single hot pair past the cap still serves its newest
// slot.
func (s *Store) evictFamilyLocked(keep Key, keepFE *FamilyEntry) {
	var keepB *bucket
	for k, b := range s.buckets {
		if k == keep {
			keepB = b
			continue
		}
		if len(b.skels) == 0 {
			continue
		}
		b.skels[0] = nil
		b.skels = b.skels[1:]
		s.famSize--
		s.famEvicted++
		s.dropEmptyLocked(k)
		return
	}
	if keepB == nil {
		return
	}
	for i, fe := range keepB.skels {
		if fe == keepFE {
			continue
		}
		copy(keepB.skels[i:], keepB.skels[i+1:])
		keepB.skels[len(keepB.skels)-1] = nil
		keepB.skels = keepB.skels[:len(keepB.skels)-1]
		s.famSize--
		s.famEvicted++
		return
	}
}

func (s *Store) dropEmptyPointLocked(k Key, pk PointKey) {
	b, ok := s.buckets[k]
	if !ok {
		return
	}
	if ser, ok := b.points[pk]; ok && len(ser.entries) == 0 {
		delete(b.points, pk)
	}
	s.dropEmptyLocked(k)
}

func (s *Store) dropEmptyLocked(k Key) {
	if b, ok := s.buckets[k]; ok && b.empty() {
		delete(s.buckets, k)
	}
}

// Len returns the number of stored point windows (families are
// counted by FamLen).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// FamLen returns the number of stored skeleton families.
func (s *Store) FamLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.famSize
}

// Cap returns the capacity each population (windows; families) evicts
// down to.
func (s *Store) Cap() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cap
}

// Evictions returns the number of windows shed by capacity eviction
// since construction.
func (s *Store) Evictions() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.evicted
}

// FamEvictions returns the number of skeleton families shed by
// capacity eviction since construction.
func (s *Store) FamEvictions() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.famEvicted
}

// PairCoverage summarises one OD-pair bucket: the distinct identities
// it holds, the total stored units, and the summed validity duration
// in seconds. For window coverage (Coverage) the identities are
// exact-point families and the units their disjoint windows; for
// skeleton coverage (SkeletonCoverage) the identities are slot
// families and the units their chains. In both, the validity windows
// behind a bucket's identities are pairwise disjoint, so
// CoveredSec/Families never exceeds a day —
// CoveredSec/(Families·86400) is the mean share of the 24h departure
// axis answerable without an engine.
type PairCoverage struct {
	Key        Key
	Families   int
	Windows    int
	CoveredSec float64
}

// Coverage calls f with each bucket's point-window tallies, under one
// read lock and in no particular order. It allocates nothing, so a
// reader that keeps a bounded selection pays for its rows, not for
// the store. f must not call back into the store.
func (s *Store) Coverage(f func(PairCoverage)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, b := range s.buckets {
		if len(b.points) == 0 {
			continue
		}
		pc := PairCoverage{Key: k, Families: len(b.points)}
		for _, ser := range b.points {
			pc.Windows += len(ser.entries)
			for _, e := range ser.entries {
				pc.CoveredSec += float64(e.Window.Duration())
			}
		}
		f(pc)
	}
}

// SkeletonCoverage is Coverage over the skeleton families: Families
// counts a pair's slot families, Windows its stored chains and
// CoveredSec the summed slot durations (disjoint by the insert
// invariant).
func (s *Store) SkeletonCoverage(f func(PairCoverage)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, b := range s.buckets {
		if len(b.skels) == 0 {
			continue
		}
		pc := PairCoverage{Key: k, Families: len(b.skels)}
		for _, fe := range b.skels {
			pc.Windows += len(fe.Fam.Chains)
			pc.CoveredSec += float64(fe.Window.Duration())
		}
		f(pc)
	}
}
