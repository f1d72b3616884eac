package model

import (
	"errors"
	"fmt"

	"indoorpath/internal/geom"
	"indoorpath/internal/temporal"
)

// Builder assembles a Venue incrementally. It is not safe for concurrent
// use. All referenced IDs must come from the same builder.
type Builder struct {
	name       string
	partitions []Partition
	doors      []Door
	partNames  map[string]PartitionID
	doorNames  map[string]DoorID
	override   map[PartitionID]map[[2]DoorID]float64
	outdoors   PartitionID
	errs       []error
}

// NewBuilder starts an empty venue with the given display name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:      name,
		partNames: map[string]PartitionID{},
		doorNames: map[string]DoorID{},
		override:  map[PartitionID]map[[2]DoorID]float64{},
		outdoors:  NoPartition,
	}
}

func (b *Builder) fail(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// AddPartition registers a partition and returns its ID. Names must be
// unique; an empty name is auto-generated ("v<id>").
func (b *Builder) AddPartition(name string, kind PartitionKind, rect geom.Rect) PartitionID {
	id := PartitionID(len(b.partitions))
	if name == "" {
		name = fmt.Sprintf("v%d", id)
	}
	if prev, dup := b.partNames[name]; dup {
		b.fail("model: duplicate partition name %q (ids %d and %d)", name, prev, id)
	}
	b.partNames[name] = id
	b.partitions = append(b.partitions, Partition{
		ID: id, Name: name, Kind: kind, Rect: rect.Canon(), TopFloor: rect.Floor,
	})
	return id
}

// AddStairwell registers a stairwell partition spanning [floor, floor+1]
// with the given footprint on the lower floor.
func (b *Builder) AddStairwell(name string, rect geom.Rect) PartitionID {
	id := b.AddPartition(name, StairwellPartition, rect)
	b.partitions[id].TopFloor = rect.Floor + 1
	return id
}

// Outdoors returns the venue's single outdoor partition, creating it on
// first use (the v0 vertex of the paper's example IT-Graph).
func (b *Builder) Outdoors() PartitionID {
	if b.outdoors == NoPartition {
		b.outdoors = b.AddPartition("outdoors", OutdoorPartition, geom.Rect{})
	}
	return b.outdoors
}

// AddDoor registers a door (no connections yet) and returns its ID. A
// nil schedule means the door is always open. An empty name is
// auto-generated ("d<id>").
func (b *Builder) AddDoor(name string, kind DoorKind, pos geom.Point, atis temporal.Schedule) DoorID {
	id := DoorID(len(b.doors))
	if name == "" {
		name = fmt.Sprintf("d%d", id)
	}
	if prev, dup := b.doorNames[name]; dup {
		b.fail("model: duplicate door name %q (ids %d and %d)", name, prev, id)
	}
	b.doorNames[name] = id
	if atis == nil {
		atis = temporal.AlwaysOpen()
	}
	if !atis.IsNormal() {
		norm, err := temporal.NewSchedule(atis...)
		if err != nil {
			b.fail("model: door %q schedule: %v", name, err)
		} else {
			atis = norm
		}
	}
	b.doors = append(b.doors, Door{ID: id, Name: name, Kind: kind, Pos: pos, ATIs: atis})
	return id
}

// ConnectBi adds the two arcs a→b and b→a through door d.
func (b *Builder) ConnectBi(d DoorID, a, p PartitionID) {
	b.ConnectOneWay(d, a, p)
	b.ConnectOneWay(d, p, a)
}

// ConnectOneWay adds the single arc from→to through door d, modelling
// the door directionality of the paper's Figure 1.
func (b *Builder) ConnectOneWay(d DoorID, from, to PartitionID) {
	if int(d) < 0 || int(d) >= len(b.doors) {
		b.fail("model: connect: unknown door %d", d)
		return
	}
	if !b.validPart(from) || !b.validPart(to) {
		b.fail("model: connect door %s: unknown partition (%d→%d)", b.doors[d].Name, from, to)
		return
	}
	if from == to {
		b.fail("model: connect door %s: self-loop on partition %d", b.doors[d].Name, from)
		return
	}
	for _, arc := range b.doors[d].Arcs {
		if arc.From == from && arc.To == to {
			return // idempotent
		}
	}
	b.doors[d].Arcs = append(b.doors[d].Arcs, Arc{From: from, To: to})
}

func (b *Builder) validPart(p PartitionID) bool {
	return int(p) >= 0 && int(p) < len(b.partitions)
}

// SetDistance declares the intra-partition walking distance between two
// doors of partition p, overriding geometric computation. Distances are
// symmetric; d1 != d2 and dist must be non-negative.
func (b *Builder) SetDistance(p PartitionID, d1, d2 DoorID, dist float64) {
	if !b.validPart(p) {
		b.fail("model: SetDistance: unknown partition %d", p)
		return
	}
	if int(d1) < 0 || int(d1) >= len(b.doors) || int(d2) < 0 || int(d2) >= len(b.doors) {
		b.fail("model: SetDistance on partition %d: unknown door (%d, %d)", p, d1, d2)
		return
	}
	if d1 == d2 {
		b.fail("model: SetDistance: identical doors %d on partition %d", d1, p)
		return
	}
	if dist < 0 {
		b.fail("model: SetDistance: negative distance %f", dist)
		return
	}
	if d1 > d2 {
		d1, d2 = d2, d1
	}
	m := b.override[p]
	if m == nil {
		m = map[[2]DoorID]float64{}
		b.override[p] = m
	}
	m[[2]DoorID{d1, d2}] = dist
}

// PartitionByName resolves a previously added partition.
func (b *Builder) PartitionByName(name string) (PartitionID, bool) {
	id, ok := b.partNames[name]
	return id, ok
}

// DoorByName resolves a previously added door.
func (b *Builder) DoorByName(name string) (DoorID, bool) {
	id, ok := b.doorNames[name]
	return id, ok
}

// Build validates and freezes the venue. The builder remains usable (a
// subsequent Build reflects later additions), but the returned Venue is
// a snapshot.
func (b *Builder) Build() (*Venue, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	v := &Venue{
		Name:         b.name,
		partitions:   append([]Partition(nil), b.partitions...),
		doors:        make([]*Door, len(b.doors)),
		distOverride: map[PartitionID]map[[2]DoorID]float64{},
		partByName:   make(map[string]PartitionID, len(b.partNames)),
		doorByName:   make(map[string]DoorID, len(b.doorNames)),
	}
	for n, id := range b.partNames {
		v.partByName[n] = id
	}
	for n, id := range b.doorNames {
		v.doorByName[n] = id
	}
	doors := make([]Door, len(b.doors))
	for i, d := range b.doors {
		d.Arcs = append([]Arc(nil), d.Arcs...)
		d.ATIs = d.ATIs.Clone()
		doors[i] = d
		v.doors[i] = &doors[i]
	}
	v.bounds = countBoundaries(v.doors)
	for p, m := range b.override {
		mm := make(map[[2]DoorID]float64, len(m))
		for k, dist := range m {
			mm[k] = dist
		}
		v.distOverride[p] = mm
	}

	var errs []error
	// Every door must connect something.
	for _, d := range v.doors {
		if len(d.Arcs) == 0 {
			errs = append(errs, fmt.Errorf("model: door %s has no connections", d.Name))
		}
	}
	// Distance overrides must reference doors attached to the partition.
	n := len(v.partitions)
	v.p2d = make([][]DoorID, n)
	v.p2dEnter = make([][]DoorID, n)
	v.p2dLeave = make([][]DoorID, n)
	attach := func(dst [][]DoorID, p PartitionID, d DoorID) {
		for _, e := range dst[p] {
			if e == d {
				return
			}
		}
		dst[p] = append(dst[p], d)
	}
	for i, door := range v.doors {
		d := DoorID(i)
		for _, a := range door.Arcs {
			attach(v.p2d, a.From, d)
			attach(v.p2d, a.To, d)
			attach(v.p2dLeave, a.From, d)
			attach(v.p2dEnter, a.To, d)
		}
	}
	for p, m := range v.distOverride {
		for pair := range m {
			for _, d := range []DoorID{pair[0], pair[1]} {
				found := false
				for _, e := range v.p2d[p] {
					if e == d {
						found = true
						break
					}
				}
				if !found {
					errs = append(errs, fmt.Errorf(
						"model: distance override on partition %s references unattached door %s",
						v.partitions[p].Name, v.doors[d].Name))
				}
			}
		}
	}
	if err := v.buildIndexes(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return v, nil
}

// MustBuild is Build that panics on error, for tests and examples.
func (b *Builder) MustBuild() *Venue {
	v, err := b.Build()
	if err != nil {
		panic(err)
	}
	return v
}
