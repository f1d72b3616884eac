package temporal

import (
	"slices"
	"sort"
)

// CheckpointSet is the sorted set T of instants at which the indoor
// topology may change — the union of all door ATI boundaries (paper,
// Sec. II-B "Asynchronous Check"). Between two consecutive checkpoints
// the set of open doors is constant, which is what makes the IT-Graph
// snapshot reuse of Graph_Update (Algorithm 3) sound.
//
// The day is split into len(T)+1 half-open slots:
//
//	slot 0: [0:00, T[0])   slot i: [T[i-1], T[i])   slot n: [T[n-1], 24:00)
//
// A checkpoint at exactly 0:00 or 24:00 is dropped during construction
// since it cannot separate two in-day slots.
type CheckpointSet struct {
	times []TimeOfDay
}

// NewCheckpointSet sorts and deduplicates the given instants (0:00 and
// 24:00 are discarded as non-separating).
func NewCheckpointSet(times []TimeOfDay) CheckpointSet {
	ts := make([]TimeOfDay, 0, len(times))
	for _, t := range times {
		t = t.Mod()
		if t > 0 && t < DaySeconds {
			ts = append(ts, t)
		}
	}
	slices.Sort(ts)
	out := ts[:0]
	for _, t := range ts {
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
	}
	return CheckpointSet{times: out}
}

// Len returns |T|.
func (c CheckpointSet) Len() int { return len(c.times) }

// Times returns the sorted checkpoints (shared slice; do not mutate).
func (c CheckpointSet) Times() []TimeOfDay { return c.times }

// SlotCount returns the number of constant-topology slots, |T|+1.
func (c CheckpointSet) SlotCount() int { return len(c.times) + 1 }

// SlotOf returns the index of the slot containing instant t.
func (c CheckpointSet) SlotOf(t TimeOfDay) int {
	t = t.Mod()
	// First checkpoint strictly greater than t identifies the slot.
	return sort.Search(len(c.times), func(i int) bool { return c.times[i] > t })
}

// SlotStart returns the inclusive start of slot i (0:00 for slot 0).
func (c CheckpointSet) SlotStart(i int) TimeOfDay {
	if i <= 0 {
		return 0
	}
	if i > len(c.times) {
		i = len(c.times)
	}
	return c.times[i-1]
}

// SlotEnd returns the exclusive end of slot i (24:00 for the last slot).
func (c CheckpointSet) SlotEnd(i int) TimeOfDay {
	if i < 0 {
		i = 0
	}
	if i >= len(c.times) {
		return DaySeconds
	}
	return c.times[i]
}

// Prev returns the latest checkpoint <= t, mirroring the paper's
// Find_Previous_Checkpoint; ok=false when t precedes every checkpoint
// (the slot starting at 0:00).
func (c CheckpointSet) Prev(t TimeOfDay) (TimeOfDay, bool) {
	i := c.SlotOf(t)
	if i == 0 {
		return 0, false
	}
	return c.times[i-1], true
}

// Next returns the earliest checkpoint > t, mirroring the paper's
// Find_Next_Checkpoint; ok=false when t is at or past the last
// checkpoint.
func (c CheckpointSet) Next(t TimeOfDay) (TimeOfDay, bool) {
	i := c.SlotOf(t)
	if i >= len(c.times) {
		return 0, false
	}
	return c.times[i], true
}

// Contains reports whether t is exactly a checkpoint.
func (c CheckpointSet) Contains(t TimeOfDay) bool {
	t = t.Mod()
	i := sort.Search(len(c.times), func(i int) bool { return c.times[i] >= t })
	return i < len(c.times) && c.times[i] == t
}

// Union merges two checkpoint sets.
func (c CheckpointSet) Union(o CheckpointSet) CheckpointSet {
	all := make([]TimeOfDay, 0, len(c.times)+len(o.times))
	all = append(all, c.times...)
	all = append(all, o.times...)
	return NewCheckpointSet(all)
}
