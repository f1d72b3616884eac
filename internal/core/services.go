package core

import (
	"sort"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// The service-query layer builds the indoor LBS operations the paper's
// introduction motivates (navigation assistance, location-based
// shopping) on top of the ITSPQ machinery: single-source valid
// distances, k-nearest reachable partitions, and day profiles of an OD
// pair.

// DistanceMap is the result of SingleSource: temporally valid shortest
// distances from one point at one departure time.
type DistanceMap struct {
	Source geom.Point
	At     temporal.TimeOfDay
	// Doors maps every reachable door to its valid shortest distance.
	Doors map[model.DoorID]float64
	// Partitions maps every reachable partition to the shortest valid
	// distance to its nearest entering door (the source partition maps
	// to 0).
	Partitions map[model.PartitionID]float64
}

// SingleSource computes temporally valid shortest distances from src at
// departure time at to every reachable door and partition, under the
// same semantics as ITSPQ (doors open on arrival, no waiting, no
// private through-traffic). It is the one-to-all building block for
// kNN and range queries, and runs on a fresh ITG/S engine.
func SingleSource(g *itgraph.Graph, src geom.Point, at temporal.TimeOfDay, speed float64) (*DistanceMap, error) {
	return NewEngine(g, Options{}).singleSource(src, at, speed)
}

// singleSource runs SingleSource's search: the kernel run to exhaustion
// with no target partition, relaxing doors into private partitions too
// (search.everyDoor), which are reported but not passed through. The
// map is read off the settled doors afterwards.
func (e *Engine) singleSource(src geom.Point, at temporal.TimeOfDay, speed float64) (*DistanceMap, error) {
	srcPart, err := e.locate(src, "source")
	if err != nil {
		return nil, err
	}
	if speed <= 0 {
		speed = WalkingSpeedMPS
	}
	at = at.Mod()
	e.begin(at, speed, false)
	var stats SearchStats
	e.run(&search{targets: toAnchors, root: src, rootPart: srcPart, tgtPart: model.NoPartition,
		cross: e.cross, everyDoor: true}, &stats)
	st := e.st
	dm := &DistanceMap{
		Source:     src,
		At:         at,
		Doors:      make(map[model.DoorID]float64, stats.Settled),
		Partitions: map[model.PartitionID]float64{srcPart: 0},
	}
	for h := range int32(e.v.DoorCount()) {
		if st.settled[h] != st.epoch {
			continue
		}
		d, base := model.DoorID(h), st.dist[h]
		dm.Doors[d] = base
		for _, a := range e.v.Door(d).Arcs {
			if old, seen := dm.Partitions[a.To]; a.From == st.prevPart[h] && (!seen || base < old) {
				dm.Partitions[a.To] = base
			}
		}
	}
	return dm, nil
}

// Near is one kNN result: a reachable partition with its valid walking
// distance at the query time.
type Near struct {
	Partition model.PartitionID
	Dist      float64
}

// NearestPartitions returns the k nearest partitions (by temporally
// valid walking distance from src at time at) among those accepted by
// filter (nil = public, hallway-free partitions, i.e. rooms/shops).
// Results are sorted by distance. Fewer than k results mean the rest of
// the venue is unreachable at that time.
func NearestPartitions(g *itgraph.Graph, src geom.Point, at temporal.TimeOfDay, k int,
	filter func(model.Partition) bool) ([]Near, error) {

	if filter == nil {
		filter = func(p model.Partition) bool { return p.Kind == model.PublicPartition }
	}
	dm, err := SingleSource(g, src, at, 0)
	if err != nil {
		return nil, err
	}
	v := g.Venue()
	var out []Near
	for p, d := range dm.Partitions {
		if filter(*v.Partition(p)) {
			out = append(out, Near{Partition: p, Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Partition < out[j].Partition
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// ProfileEntry is one slot of a day profile: the outcome of the OD pair
// when departing at Start.
type ProfileEntry struct {
	Start, End temporal.TimeOfDay
	Reachable  bool
	Length     float64
	Hops       int
}

// DayProfile answers the OD pair at the start of every checkpoint slot
// of the venue, summarising how the answer evolves over the day (the
// temporal counterpart of a distance profile). Slot boundaries are the
// only instants where the topology changes, though within a slot the
// answer can still drift as walking windows shift; the profile reports
// the slot-start outcome.
func DayProfile(e *Engine, src, tgt geom.Point) ([]ProfileEntry, error) {
	cps := e.Graph().Checkpoints()
	var out []ProfileEntry
	for slot := 0; slot < cps.SlotCount(); slot++ {
		at := cps.SlotStart(slot)
		p, _, err := e.RouteOrNil(Query{Source: src, Target: tgt, At: at})
		if err != nil {
			return nil, err
		}
		entry := ProfileEntry{Start: at, End: cps.SlotEnd(slot)}
		if p != nil {
			entry.Reachable = true
			entry.Length = p.Length
			entry.Hops = p.Hops()
		}
		out = append(out, entry)
	}
	return out, nil
}
