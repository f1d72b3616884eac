package model

import (
	"fmt"
	"math"

	"indoorpath/internal/geom"
)

// Problem is one venue-consistency finding.
type Problem struct {
	// Severity is "error" for findings that will produce wrong routing
	// answers and "warn" for suspicious-but-servable modelling.
	Severity string
	Message  string
}

// String implements fmt.Stringer.
func (p Problem) String() string { return p.Severity + ": " + p.Message }

// Lint runs deep consistency checks beyond what Build enforces. Build
// guarantees structural well-formedness (valid IDs, connected doors,
// normal schedules); Lint targets modelling mistakes in hand-authored
// or imported venues:
//
//   - partitions with overlapping interiors on one floor;
//   - doors positioned far from a partition they supposedly serve;
//   - doors that are never open;
//   - partitions unreachable from the rest of the venue even with every
//     door open;
//   - private partitions with no doors at all (dead space);
//   - stairwells that do not bridge two floors.
//
// The returned slice is empty for a clean venue.
func (v *Venue) Lint() []Problem {
	var out []Problem
	errf := func(format string, args ...any) {
		out = append(out, Problem{Severity: "error", Message: fmt.Sprintf(format, args...)})
	}
	warnf := func(format string, args ...any) {
		out = append(out, Problem{Severity: "warn", Message: fmt.Sprintf(format, args...)})
	}

	// Overlapping partitions (same floor, positive-area intersection).
	for i := 0; i < len(v.partitions); i++ {
		pi := &v.partitions[i]
		if pi.Kind == OutdoorPartition || pi.Rect.Area() <= 0 {
			continue
		}
		for j := i + 1; j < len(v.partitions); j++ {
			pj := &v.partitions[j]
			if pj.Kind == OutdoorPartition || pj.Rect.Area() <= 0 {
				continue
			}
			if pi.Rect.OverlapsInterior(pj.Rect) {
				errf("partitions %s and %s overlap", pi.Name, pj.Name)
			}
		}
	}

	// Door placement and openness.
	for _, d := range v.doors {
		if len(d.ATIs) == 0 {
			warnf("door %s is never open", d.Name)
		}
		for _, p := range v.PartitionsOf(d.ID) {
			part := v.Partition(p)
			if part.Kind == OutdoorPartition || part.Rect.Area() <= 0 {
				continue
			}
			// Stair doors sit on one of the stairwell's two floors.
			floorOK := d.Pos.Floor == part.Rect.Floor ||
				(part.Kind == StairwellPartition && d.Pos.Floor == part.TopFloor)
			if !floorOK {
				errf("door %s (floor %d) serves partition %s on floor %d",
					d.Name, d.Pos.Floor, part.Name, part.Rect.Floor)
				continue
			}
			if part.Kind == StairwellPartition {
				continue // stair-door geometry is conventional, not wall-aligned
			}
			clamped := part.Rect.ClampPoint(geom.Pt(d.Pos.X, d.Pos.Y, part.Rect.Floor))
			if dist := math.Hypot(clamped.X-d.Pos.X, clamped.Y-d.Pos.Y); dist > 1.0 {
				warnf("door %s is %.1f m away from partition %s", d.Name, dist, part.Name)
			}
		}
	}

	// Dead space and stairwell shape.
	for i := range v.partitions {
		p := &v.partitions[i]
		if p.Kind != OutdoorPartition && len(v.DoorsOf(p.ID)) == 0 {
			errf("partition %s has no doors", p.Name)
		}
		if p.Kind == StairwellPartition && p.TopFloor == p.Rect.Floor {
			warnf("stairwell %s does not span two floors", p.Name)
		}
	}

	// Reachability with every door open (undirected over arcs).
	if n := len(v.partitions); n > 0 {
		seen := make([]bool, n)
		var stack []PartitionID
		// Start from the first non-outdoor partition.
		for i := range v.partitions {
			if v.partitions[i].Kind != OutdoorPartition {
				stack = append(stack, PartitionID(i))
				seen[i] = true
				break
			}
		}
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, d := range v.DoorsOf(p) {
				for _, a := range v.Door(d).Arcs {
					for _, nb := range []PartitionID{a.From, a.To} {
						if !seen[nb] {
							seen[nb] = true
							stack = append(stack, nb)
						}
					}
				}
			}
		}
		for i := range v.partitions {
			if !seen[i] && v.partitions[i].Kind != OutdoorPartition {
				warnf("partition %s is disconnected from the venue", v.partitions[i].Name)
			}
		}
	}
	return out
}
