// Package core implements ITSPQ processing (Liu et al., ICDE 2020,
// Section II-B): the door-graph search framework of Algorithm 1 with the
// synchronous (Algorithm 2) and asynchronous (Algorithms 3–4) temporal-
// variation checks, plus the baselines and extensions evaluated in this
// repository (temporal-unaware static search, static-then-validate, an
// earliest-arrival router with waiting, and an exhaustive oracle for
// testing).
package core

import (
	"errors"
	"fmt"
	"strings"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// WalkingSpeedMPS is the paper's human average walking speed, 5 km/h.
const WalkingSpeedMPS = 5.0 * 1000 / 3600

// ErrNoRoute is returned when no valid path exists — the paper's
// "no such routes" / null result (e.g. ITSPQ(p3, p4, 23:30) in
// Example 1).
var ErrNoRoute = errors.New("core: no valid route")

// ErrNotIndoor is returned when a query endpoint lies in no partition.
var ErrNotIndoor = errors.New("core: point is not covered by any partition")

// Query is one ITSPQ(ps, pt, t) instance.
type Query struct {
	Source geom.Point
	Target geom.Point
	At     temporal.TimeOfDay
	// Speed overrides the walking speed in m/s; zero means the paper's
	// 5 km/h.
	Speed float64
}

// speed returns the effective walking speed.
func (q Query) speed() float64 {
	if q.Speed > 0 {
		return q.Speed
	}
	return WalkingSpeedMPS
}

// Path is a valid indoor path from a source point to a target point:
// the door sequence, the partition sequence threading them
// (len(Partitions) == len(Doors)+1), the total walking length, and the
// arrival instant at each door given the query time and walking speed.
type Path struct {
	Source, Target geom.Point
	Doors          []model.DoorID
	Partitions     []model.PartitionID
	Length         float64
	Arrivals       []temporal.TimeOfDay // at each door, same index as Doors
	ArrivalAtTgt   temporal.TimeOfDay
	DepartedAt     temporal.TimeOfDay
	// TotalWait is nonzero only for paths produced by WaitingRouter.
	TotalWait temporal.TimeOfDay
}

// Hops returns the number of doors crossed.
func (p *Path) Hops() int { return len(p.Doors) }

// Format renders the paper's path notation, e.g. "(p3, d18, p4)", with
// door names resolved from the venue.
func (p *Path) Format(v *model.Venue) string {
	var sb strings.Builder
	sb.WriteString("(ps")
	for _, d := range p.Doors {
		sb.WriteString(", ")
		sb.WriteString(v.Door(d).Name)
	}
	sb.WriteString(", pt)")
	return sb.String()
}

// String implements fmt.Stringer.
func (p *Path) String() string {
	return fmt.Sprintf("path{%d doors, %.2fm, arrive %v}", len(p.Doors), p.Length, p.ArrivalAtTgt)
}

// Validate replays the path against the IT-Graph and query semantics,
// returning the first violated rule. It is the independent correctness
// check used by the test suite: connectivity (every hop is a permitted
// arc), temporal validity (every door open at its arrival instant, rule
// 1), privacy (no private partition other than the endpoints', rule 2),
// and internal consistency of Length and Arrivals.
func (p *Path) Validate(g *itgraph.Graph, q Query) error {
	v := g.Venue()
	if len(p.Partitions) != len(p.Doors)+1 {
		return fmt.Errorf("core: malformed path: %d partitions for %d doors", len(p.Partitions), len(p.Doors))
	}
	if len(p.Arrivals) != len(p.Doors) {
		return fmt.Errorf("core: malformed path: %d arrivals for %d doors", len(p.Arrivals), len(p.Doors))
	}
	srcPart, ok := v.Locate(q.Source)
	if !ok || !partitionCovers(v, p.Partitions[0], q.Source) {
		return fmt.Errorf("core: source partition %d does not cover source", p.Partitions[0])
	}
	tgtPart := p.Partitions[len(p.Partitions)-1]
	if !partitionCovers(v, tgtPart, q.Target) {
		return fmt.Errorf("core: target partition %d does not cover target", tgtPart)
	}
	speed := q.speed()
	t0 := q.At.Mod() // the departure Route answers for

	// Walk the path accumulating distance.
	dist := 0.0
	cur := p.Partitions[0]
	var prevDoor model.DoorID = model.NoDoor
	for i, d := range p.Doors {
		// Leg inside partition cur: from previous anchor to door d.
		if prevDoor == model.NoDoor {
			dist += g.DM().PointToDoor(cur, q.Source, d)
		} else {
			dist += g.DM().Dist(cur, prevDoor, d)
		}
		next := p.Partitions[i+1]
		if !v.CanCross(d, cur, next) {
			return fmt.Errorf("core: hop %d: door %s does not permit %s → %s",
				i, v.Door(d).Name, v.Partition(cur).Name, v.Partition(next).Name)
		}
		// Rule 2: privacy.
		if next != tgtPart && next != srcPart && v.Partition(next).Kind.IsPrivate() {
			return fmt.Errorf("core: hop %d enters private partition %s", i, v.Partition(next).Name)
		}
		// Rule 1: door open at arrival (waiting paths arrive later).
		arr := p.Arrivals[i]
		walkArr := t0 + temporal.TimeOfDay(dist/speed)
		if p.TotalWait == 0 {
			if diff := float64(arr - walkArr); diff > 1e-6 || diff < -1e-6 {
				return fmt.Errorf("core: hop %d arrival %v inconsistent with distance (want %v)", i, arr, walkArr)
			}
		} else if arr < walkArr-1e-6 {
			return fmt.Errorf("core: hop %d arrives before walking time allows", i)
		}
		if !v.Door(d).OpenAt(arr.Mod()) {
			return fmt.Errorf("core: hop %d: door %s closed at %v (ATIs %v)",
				i, v.Door(d).Name, arr.Mod(), v.Door(d).ATIs)
		}
		cur = next
		prevDoor = d
	}
	// Final leg to the target point.
	if prevDoor == model.NoDoor {
		dist += g.DM().PointToPoint(cur, q.Source, q.Target)
	} else {
		dist += g.DM().PointToDoor(cur, q.Target, prevDoor)
	}
	if diff := p.Length - dist; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("core: length %v inconsistent with legs sum %v", p.Length, dist)
	}
	return nil
}

// partitionCovers allows boundary points: the point must be covered by
// the named partition (LocateAll may return several).
func partitionCovers(v *model.Venue, p model.PartitionID, pt geom.Point) bool {
	for _, id := range v.LocateAll(pt) {
		if id == p {
			return true
		}
	}
	return false
}
