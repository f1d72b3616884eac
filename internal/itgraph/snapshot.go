package itgraph

import (
	"sync"
	"sync/atomic"

	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// DoorSet is a bitset over door IDs.
type DoorSet []uint64

// NewDoorSet returns a set sized for n doors.
func NewDoorSet(n int) DoorSet { return make(DoorSet, (n+63)/64) }

// Add inserts door d.
func (s DoorSet) Add(d model.DoorID) { s[d>>6] |= 1 << (uint(d) & 63) }

// Remove deletes door d.
func (s DoorSet) Remove(d model.DoorID) { s[d>>6] &^= 1 << (uint(d) & 63) }

// Contains reports whether door d is in the set.
func (s DoorSet) Contains(d model.DoorID) bool {
	return s[d>>6]&(1<<(uint(d)&63)) != 0
}

// MemoryBytes returns the set footprint.
func (s DoorSet) MemoryBytes() int { return len(s) * 8 }

// Snapshot is the reduced IT-Graph for one checkpoint slot
// [Start, End): the doors open throughout the slot and, per partition,
// the pruned leaveable-door lists (the paper's P2D^cp mapping produced
// by Graph_Update, Algorithm 3). Between two consecutive checkpoints
// the topology is constant, so one snapshot serves every query instant
// within its slot.
type Snapshot struct {
	Slot       int
	Start, End temporal.TimeOfDay
	OpenCount  int

	open      DoorSet
	leaveOpen [][]model.DoorID // pruned P2D◁ per partition
	bytes     int              // MemoryBytes, fixed at build
}

// DoorOpen reports whether door d is open during the slot — an O(1)
// bitset probe, the core saving of the asynchronous check.
func (s *Snapshot) DoorOpen(d model.DoorID) bool { return s.open.Contains(d) }

// LeaveDoors returns the pruned P2D◁(p): doors through which one can
// leave partition p during this slot.
func (s *Snapshot) LeaveDoors(p model.PartitionID) []model.DoorID {
	return s.leaveOpen[p]
}

// MemoryBytes estimates the snapshot footprint (bitset + pruned lists),
// reported as part of the ITG/A memory cost in Fig. 7. The ITG/A
// checker reads it on every search, so build sums it once.
func (s *Snapshot) MemoryBytes() int { return s.bytes }

// SnapshotSeries lazily materialises snapshots per checkpoint slot and
// caches them, mirroring the paper's asynchronous maintenance: a
// snapshot is (re)built only when some arrival time first crosses into
// its slot, then reused. It is safe for concurrent use and optimised
// for the concurrent serving path: steady-state lookups are a single
// atomic load with no lock, while first-use materialisation
// double-checks under a mutex so Graph_Update still runs at most once
// per slot. A materialised Snapshot is immutable, so the pointer may be
// shared freely across goroutines.
type SnapshotSeries struct {
	g *Graph

	slots []atomic.Pointer[Snapshot]

	mu     sync.Mutex // serialises builds only; reads never take it
	builds atomic.Int64
}

func newSnapshotSeries(g *Graph) *SnapshotSeries {
	return &SnapshotSeries{g: g, slots: make([]atomic.Pointer[Snapshot], g.cps.SlotCount())}
}

// At returns the snapshot for the slot containing instant t.
func (ss *SnapshotSeries) At(t temporal.TimeOfDay) *Snapshot {
	return ss.Slot(ss.g.cps.SlotOf(t))
}

// Slot returns snapshot i, building it on first use (Graph_Update).
func (ss *SnapshotSeries) Slot(i int) *Snapshot {
	if i < 0 {
		i = 0
	}
	if i >= len(ss.slots) {
		i = len(ss.slots) - 1
	}
	if s := ss.slots[i].Load(); s != nil {
		return s
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if s := ss.slots[i].Load(); s != nil {
		return s // another goroutine built it while we waited
	}
	s := ss.build(i)
	ss.slots[i].Store(s)
	ss.builds.Add(1)
	return s
}

// Builds returns how many Graph_Update executions have run, used by
// tests and the experiment harness to verify snapshot reuse.
func (ss *SnapshotSeries) Builds() int { return int(ss.builds.Load()) }

// BuildAll materialises every slot eagerly (used to amortise all
// Graph_Update work before timed benchmark sections).
func (ss *SnapshotSeries) BuildAll() {
	for i := 0; i < len(ss.slots); i++ {
		ss.Slot(i)
	}
}

// SlotCount returns the number of slots.
func (ss *SnapshotSeries) SlotCount() int { return len(ss.slots) }

// MemoryBytes sums the footprints of currently materialised snapshots.
func (ss *SnapshotSeries) MemoryBytes() int {
	total := 0
	for i := range ss.slots {
		if s := ss.slots[i].Load(); s != nil {
			total += s.MemoryBytes()
		}
	}
	return total
}

// build is Graph_Update (Algorithm 3) for slot i: start from the full
// topology G0 and drop every door closed during the slot, producing the
// pruned P2D mappings.
func (ss *SnapshotSeries) build(i int) *Snapshot {
	v := ss.g.venue
	cps := ss.g.cps
	start, end := cps.SlotStart(i), cps.SlotEnd(i)
	s := &Snapshot{
		Slot: i, Start: start, End: end,
		open:      NewDoorSet(v.DoorCount()),
		leaveOpen: make([][]model.DoorID, v.PartitionCount()),
	}
	// A door's openness is constant within the slot (slot boundaries are
	// exactly the ATI boundaries), so testing the slot start suffices.
	for _, d := range v.Doors() {
		if d.ATIs.Contains(start) {
			s.open.Add(d.ID)
			s.OpenCount++
		}
	}
	for p := 0; p < v.PartitionCount(); p++ {
		full := v.LeaveDoors(model.PartitionID(p))
		var pruned []model.DoorID
		for _, d := range full {
			if s.open.Contains(d) {
				pruned = append(pruned, d)
			}
		}
		s.leaveOpen[p] = pruned
	}
	s.bytes = s.open.MemoryBytes() + 3*8 // bitset + slot header words
	for _, l := range s.leaveOpen {
		s.bytes += 24 + 4*len(l) // slice header + door ids
	}
	return s
}
