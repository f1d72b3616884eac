package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"indoorpath/internal/geom"
	"indoorpath/internal/temporal"
)

// Venue is an immutable indoor space: partitions, doors, and the
// accessibility mappings derived from door arcs. Build one with a
// Builder; all query-time lookups are O(1) or O(degree).
type Venue struct {
	Name       string
	partitions []Partition
	// doors indexes the doors, which Build lays out in one backing
	// array. WithSchedules copies the index and gives each updated door
	// a new Door; every other door is shared with the receiver.
	doors []*Door
	// bounds is the checkpoint set T with multiplicities: every instant
	// strictly inside the day on which some door's ATI opens or closes,
	// sorted, with the number of such boundaries. A schedule swap
	// adjusts the counts by the updated doors alone.
	bounds []boundary

	p2d      [][]DoorID // all doors attached to a partition
	p2dEnter [][]DoorID // P2D▷: doors through which one can enter
	p2dLeave [][]DoorID // P2D◁: doors through which one can leave

	// distOverride holds explicit intra-partition door-to-door distances
	// keyed by partition and an ordered door pair; used for venues built
	// from published distance tables rather than geometry.
	distOverride map[PartitionID]map[[2]DoorID]float64

	indexes map[int]*geom.GridIndex // per-floor point-location index
	floors  []int                   // sorted distinct floors

	partByName map[string]PartitionID
	doorByName map[string]DoorID
}

// PartitionByName resolves a partition by display name.
func (v *Venue) PartitionByName(name string) (PartitionID, bool) {
	id, ok := v.partByName[name]
	return id, ok
}

// DoorByName resolves a door by display name.
func (v *Venue) DoorByName(name string) (DoorID, bool) {
	id, ok := v.doorByName[name]
	return id, ok
}

// PartitionCount returns the number of partitions (including outdoors
// and stairwells if present).
func (v *Venue) PartitionCount() int { return len(v.partitions) }

// DoorCount returns the number of doors.
func (v *Venue) DoorCount() int { return len(v.doors) }

// Partition returns the partition with the given id.
func (v *Venue) Partition(id PartitionID) *Partition {
	return &v.partitions[id]
}

// Door returns the door with the given id.
func (v *Venue) Door(id DoorID) *Door { return v.doors[id] }

// Partitions returns the partition slice (shared; do not mutate).
func (v *Venue) Partitions() []Partition { return v.partitions }

// Doors returns the door index, ordered by ID (shared; mutate neither
// the slice nor the doors).
func (v *Venue) Doors() []*Door { return v.doors }

// Floors returns the sorted distinct floor numbers.
func (v *Venue) Floors() []int { return v.floors }

// DoorsOf returns P2D(p): every door attached to partition p.
func (v *Venue) DoorsOf(p PartitionID) []DoorID { return v.p2d[p] }

// EnterDoors returns P2D▷(p): doors through which one can enter p.
func (v *Venue) EnterDoors(p PartitionID) []DoorID { return v.p2dEnter[p] }

// LeaveDoors returns P2D◁(p): doors through which one can leave p.
func (v *Venue) LeaveDoors(p PartitionID) []DoorID { return v.p2dLeave[p] }

// PartitionsOf returns D2P(d): the partitions door d connects.
func (v *Venue) PartitionsOf(d DoorID) []PartitionID {
	var out []PartitionID
	seen := func(p PartitionID) bool {
		for _, q := range out {
			if q == p {
				return true
			}
		}
		return false
	}
	for _, a := range v.doors[d].Arcs {
		if !seen(a.From) {
			out = append(out, a.From)
		}
		if !seen(a.To) {
			out = append(out, a.To)
		}
	}
	return out
}

// EnterParts returns D2P▷(d): partitions one can enter through d.
func (v *Venue) EnterParts(d DoorID) []PartitionID {
	var out []PartitionID
	for _, a := range v.doors[d].Arcs {
		dup := false
		for _, q := range out {
			if q == a.To {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a.To)
		}
	}
	return out
}

// LeaveParts returns D2P◁(d): partitions one can leave through d.
func (v *Venue) LeaveParts(d DoorID) []PartitionID {
	var out []PartitionID
	for _, a := range v.doors[d].Arcs {
		dup := false
		for _, q := range out {
			if q == a.From {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a.From)
		}
	}
	return out
}

// NextPartitions returns the partitions reachable by crossing door d
// out of partition from — the v′ of Algorithm 1 line 27, resolved per
// arc rather than by set difference so one-way doors behave correctly.
func (v *Venue) NextPartitions(d DoorID, from PartitionID) []PartitionID {
	var out []PartitionID
	for _, a := range v.doors[d].Arcs {
		if a.From == from {
			out = append(out, a.To)
		}
	}
	return out
}

// CanCross reports whether door d permits the transition from → to.
func (v *Venue) CanCross(d DoorID, from, to PartitionID) bool {
	for _, a := range v.doors[d].Arcs {
		if a.From == from && a.To == to {
			return true
		}
	}
	return false
}

// DistOverride returns the explicit intra-partition distance between two
// doors of partition p when one was declared via Builder.SetDistance.
func (v *Venue) DistOverride(p PartitionID, a, b DoorID) (float64, bool) {
	m, ok := v.distOverride[p]
	if !ok {
		return 0, false
	}
	if a > b {
		a, b = b, a
	}
	d, ok := m[[2]DoorID{a, b}]
	return d, ok
}

// HasDistOverrides reports whether partition p carries any explicit
// distance entries.
func (v *Venue) HasDistOverrides(p PartitionID) bool {
	return len(v.distOverride[p]) > 0
}

// Locate returns the partition covering point pt. Boundary points
// resolve to the partition whose centre is nearest; outdoor partitions
// are never returned. ok is false when the point is in no partition.
func (v *Venue) Locate(pt geom.Point) (PartitionID, bool) {
	idx, ok := v.indexes[pt.Floor]
	if !ok {
		return NoPartition, false
	}
	id, ok := idx.LocateFirst(pt)
	if !ok {
		return NoPartition, false
	}
	return PartitionID(id), true
}

// LocateAll returns every partition containing pt (several for points on
// shared boundaries).
func (v *Venue) LocateAll(pt geom.Point) []PartitionID {
	idx, ok := v.indexes[pt.Floor]
	if !ok {
		return nil
	}
	raw := idx.Locate(pt)
	out := make([]PartitionID, len(raw))
	for i, id := range raw {
		out[i] = PartitionID(id)
	}
	return out
}

// Checkpoints returns the venue's checkpoint set T: the sorted union of
// every door's ATI boundaries. This is the T consumed by Graph_Update
// (Algorithm 3). It reads the counted boundaries, so it costs O(|T|)
// whatever the number of doors.
func (v *Venue) Checkpoints() temporal.CheckpointSet {
	ts := make([]temporal.TimeOfDay, len(v.bounds))
	for i, b := range v.bounds {
		ts[i] = b.at
	}
	return temporal.NewCheckpointSet(ts)
}

// boundary is one instant of the checkpoint set T and the number of
// door ATI boundaries that fall on it.
type boundary struct {
	at    temporal.TimeOfDay
	count int
}

// countBoundaries counts the ATI boundaries of the doors strictly
// inside the day, in one scan and one sort of the instants.
func countBoundaries(doors []*Door) []boundary {
	total := 0
	for _, d := range doors {
		if d.HasTemporalVariation() {
			total += 2 * len(d.ATIs)
		}
	}
	ts := make([]temporal.TimeOfDay, 0, total)
	for _, d := range doors {
		if d.HasTemporalVariation() {
			ts = d.ATIs.Boundaries(ts)
		}
	}
	slices.Sort(ts)
	var out []boundary
	for _, t := range ts {
		if t <= 0 || t >= temporal.DaySeconds {
			continue
		}
		if n := len(out); n > 0 && out[n-1].at == t {
			out[n-1].count++
		} else {
			out = append(out, boundary{at: t, count: 1})
		}
	}
	return out
}

// appendBoundaries appends each open and close instant of s strictly
// inside the day, weighted by w. 0:00 and 24:00 separate no two slots,
// so T leaves them out.
func appendBoundaries(dst []boundary, s temporal.Schedule, w int) []boundary {
	for _, iv := range s {
		for _, t := range [2]temporal.TimeOfDay{iv.Open, iv.Close} {
			if t > 0 && t < temporal.DaySeconds {
				dst = append(dst, boundary{at: t, count: w})
			}
		}
	}
	return dst
}

// recount returns the counted boundaries bs with the weighted instants
// of delta added, leaving out every instant whose count is zero. It
// sorts delta in place and does not modify bs.
func recount(bs, delta []boundary) []boundary {
	slices.SortFunc(delta, func(a, b boundary) int { return cmp.Compare(a.at, b.at) })
	out := make([]boundary, 0, len(bs)+len(delta))
	put := func(b boundary) {
		if n := len(out); n > 0 && out[n-1].at == b.at {
			out[n-1].count += b.count
		} else {
			out = append(out, b)
		}
	}
	i := 0
	for _, d := range delta {
		for ; i < len(bs) && bs[i].at <= d.at; i++ {
			put(bs[i])
		}
		put(d)
	}
	for _, b := range bs[i:] {
		put(b)
	}
	return slices.DeleteFunc(out, func(b boundary) bool { return b.count == 0 })
}

// OpenDoorCount returns how many doors are open at instant t.
func (v *Venue) OpenDoorCount(t temporal.TimeOfDay) int {
	n := 0
	for _, d := range v.doors {
		if d.OpenAt(t) {
			n++
		}
	}
	return n
}

// Stats summarises a venue for logs, docs and tests.
type Stats struct {
	Partitions, Doors            int
	PublicParts, PrivateParts    int
	HallwayParts, StairwellParts int
	OutdoorParts                 int
	PublicDoors, PrivateDoors    int
	VirtualDoors, StairDoors     int
	EntranceDoors                int
	TemporalDoors                int // doors with at least one closure
	Floors                       int
	Checkpoints                  int
	FloorPartitions, FloorDoors  int // excluding stairwells/stair doors and outdoors
	ArcsTotal                    int
	MultiATIDoors                int
}

// WithSchedules returns a copy of the venue in which the listed doors
// carry replacement ATI schedules (nil entries mean always open). The
// receiver is unchanged; rebuild the IT-Graph over the returned venue
// to answer queries against the new opening hours — the what-if /
// re-planning workflow (e.g. simulating a lockdown or extended hours).
// A swap copies the door index and the boundary counts and allocates
// one Door per updated door; it reads no door it does not update.
func (v *Venue) WithSchedules(updates map[DoorID]temporal.Schedule) (*Venue, error) {
	// Only doors carry schedules, so everything else is shared with
	// the receiver, every door not updated included; a venue is
	// read-only after construction.
	out := *v
	out.doors = slices.Clone(v.doors)
	var delta []boundary
	for id, sched := range updates {
		if int(id) < 0 || int(id) >= len(out.doors) {
			return nil, fmt.Errorf("model: WithSchedules: unknown door %d", id)
		}
		if sched == nil {
			sched = temporal.AlwaysOpen()
		}
		d := *v.doors[id]
		norm, err := temporal.NewSchedule(sched...)
		if err != nil {
			return nil, fmt.Errorf("model: WithSchedules door %s: %w", d.Name, err)
		}
		delta = appendBoundaries(delta, d.ATIs, -1)
		delta = appendBoundaries(delta, norm, 1)
		d.ATIs = norm
		out.doors[id] = &d
	}
	out.bounds = recount(v.bounds, delta)
	return &out, nil
}

// Stats computes venue statistics.
func (v *Venue) Stats() Stats {
	s := Stats{Partitions: len(v.partitions), Doors: len(v.doors), Floors: len(v.floors)}
	for i := range v.partitions {
		switch v.partitions[i].Kind {
		case PublicPartition:
			s.PublicParts++
		case PrivatePartition:
			s.PrivateParts++
		case HallwayPartition:
			s.HallwayParts++
		case StairwellPartition:
			s.StairwellParts++
		case OutdoorPartition:
			s.OutdoorParts++
		}
	}
	s.FloorPartitions = s.Partitions - s.StairwellParts - s.OutdoorParts
	for _, d := range v.doors {
		switch d.Kind {
		case PublicDoor:
			s.PublicDoors++
		case PrivateDoor:
			s.PrivateDoors++
		case VirtualDoor:
			s.VirtualDoors++
		case StairDoor:
			s.StairDoors++
		case EntranceDoor:
			s.EntranceDoors++
		}
		if d.HasTemporalVariation() {
			s.TemporalDoors++
		}
		if len(d.ATIs) > 1 {
			s.MultiATIDoors++
		}
		s.ArcsTotal += len(d.Arcs)
	}
	s.FloorDoors = s.Doors - s.StairDoors
	s.Checkpoints = v.Checkpoints().Len()
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf(
		"partitions=%d (public=%d private=%d hallway=%d stairwell=%d outdoor=%d) "+
			"doors=%d (public=%d private=%d virtual=%d stair=%d entrance=%d temporal=%d multiATI=%d) "+
			"floors=%d checkpoints=%d arcs=%d",
		s.Partitions, s.PublicParts, s.PrivateParts, s.HallwayParts, s.StairwellParts, s.OutdoorParts,
		s.Doors, s.PublicDoors, s.PrivateDoors, s.VirtualDoors, s.StairDoors, s.EntranceDoors,
		s.TemporalDoors, s.MultiATIDoors, s.Floors, s.Checkpoints, s.ArcsTotal)
}

// buildIndexes constructs the per-floor point-location grids. Outdoor
// partitions and zero-area rectangles are excluded.
func (v *Venue) buildIndexes() error {
	byFloor := map[int][]int{}
	for i := range v.partitions {
		p := &v.partitions[i]
		if p.Kind == OutdoorPartition || p.Rect.Area() <= 0 {
			continue
		}
		byFloor[p.Floor()] = append(byFloor[p.Floor()], i)
	}
	floorSet := map[int]bool{}
	for i := range v.partitions {
		if v.partitions[i].Kind != OutdoorPartition {
			floorSet[v.partitions[i].Floor()] = true
		}
	}
	v.floors = v.floors[:0]
	for f := range floorSet {
		v.floors = append(v.floors, f)
	}
	sort.Ints(v.floors)

	v.indexes = make(map[int]*geom.GridIndex, len(byFloor))
	for f, idxs := range byFloor {
		rects := make([]geom.Rect, len(idxs))
		ids := make([]int32, len(idxs))
		for k, i := range idxs {
			rects[k] = v.partitions[i].Rect
			ids[k] = int32(i)
		}
		g, err := geom.NewGridIndex(f, rects, ids, 0)
		if err != nil {
			return fmt.Errorf("model: floor %d index: %w", f, err)
		}
		v.indexes[f] = g
	}
	return nil
}
