// Package dmat builds the intra-partition distance matrices (DM) stored
// in the IT-Graph vertex labels. Following Lu, Cao and Jensen (ICDE
// 2012), DM(v, di, dj) is the walking distance between doors di and dj
// inside partition v; the ITSPQ search composes path lengths from these
// matrices plus the source/target segments.
//
// Partitions are convex rectangles after decomposition, so the default
// distance is Euclidean. Three refinements:
//
//   - explicit overrides from the venue builder win (used for stairway
//     lengths and venues transcribed from published tables);
//   - stairwell partitions connect doors on different floors, where the
//     planar metric is meaningless — they must carry an override;
//   - for non-convex (rectilinear) polygons the package also provides a
//     visibility-graph shortest-path distance, used by the decomposition
//     substrate and available for venues that skip decomposition.
//
// Build also derives a Bound from the matrices: a floor-aware lower
// bound on the walking distance between two points of the venue, the
// goal-directed search's estimate of the distance still to walk.
package dmat

import (
	"fmt"
	"math"

	"indoorpath/internal/geom"
	"indoorpath/internal/model"
)

// Matrix is the DM of a single partition: symmetric door-to-door
// distances over the doors attached to that partition. The paper sets DM
// to null for single-door partitions; here a 1x1 zero matrix plays that
// role.
type Matrix struct {
	doors []model.DoorID
	idx   map[model.DoorID]int
	d     []float64 // row-major n x n
	max   float64   // largest entry
}

// MaxEntry returns the largest door-to-door distance in the matrix,
// used to bound arrival-time windows during snapshot-pruned expansion.
func (m *Matrix) MaxEntry() float64 { return m.max }

// Doors returns the doors covered by the matrix (shared; do not mutate).
func (m *Matrix) Doors() []model.DoorID { return m.doors }

// Size returns the number of doors.
func (m *Matrix) Size() int { return len(m.doors) }

// Dist returns the intra-partition distance between doors a and b. ok is
// false when either door is not attached to the partition.
func (m *Matrix) Dist(a, b model.DoorID) (float64, bool) {
	i, ok := m.idx[a]
	if !ok {
		return 0, false
	}
	j, ok := m.idx[b]
	if !ok {
		return 0, false
	}
	return m.d[i*len(m.doors)+j], true
}

// set stores a symmetric entry.
func (m *Matrix) set(a, b model.DoorID, dist float64) {
	i, j := m.idx[a], m.idx[b]
	n := len(m.doors)
	m.d[i*n+j] = dist
	m.d[j*n+i] = dist
	if dist > m.max {
		m.max = dist
	}
}

// MemoryBytes estimates the matrix footprint, reported by graph stats.
func (m *Matrix) MemoryBytes() int {
	return len(m.d)*8 + len(m.doors)*4 + len(m.idx)*12
}

// Set holds one Matrix per partition of a venue.
type Set struct {
	venue *model.Venue
	mats  []Matrix
	bound Bound
}

// Bound is a lower bound on walking distance, α · (XY distance + c ·
// floors changed). c is the smallest cross-floor matrix entry per floor
// changed, and α the largest factor ≤ 1 that keeps every matrix entry
// at or above the bound, shrunk by a relative margin of 1e-9. Point
// legs are planar distances on one floor, so they satisfy it too. By
// the triangle inequality, bounding the distance to a fixed target by
// Dist is consistent: it drops by at most α·leg < leg along any leg.
// The margin keeps that strict in floating point, so a predecessor's
// key stays below its successor's even on collinear doors.
type Bound struct {
	alpha, floorCost float64
}

// Dist returns the bound on the walking distance between p and q.
func (b Bound) Dist(p, q geom.Point) float64 {
	floors := p.Floor - q.Floor
	if floors < 0 {
		floors = -floors
	}
	return b.alpha * (p.DistXY(q) + b.floorCost*float64(floors))
}

// boundMargin is the relative slack taken off α.
const boundMargin = 1e-9

// boundFit accumulates Build's entries into a Bound in the same pass.
// Same-floor entries fold into the smallest entry-to-planar ratio
// directly; the few cross-floor ones wait for c.
type boundFit struct {
	ratio float64 // min entry / XY over same-floor entries
	cross []crossEntry
}

type crossEntry struct {
	dist, xy float64
	floors   int
}

func (f *boundFit) add(dist, xy float64, floors int) {
	if floors < 0 {
		floors = -floors
	}
	switch {
	case floors != 0:
		f.cross = append(f.cross, crossEntry{dist, xy, floors})
	case xy > 0:
		f.ratio = min(f.ratio, dist/xy)
	}
}

func (f *boundFit) bound() Bound {
	c := math.Inf(1)
	for _, e := range f.cross {
		c = min(c, e.dist/float64(e.floors))
	}
	if math.IsInf(c, 1) {
		c = 0 // no entry changes floors: no route does
	}
	alpha := f.ratio
	for _, e := range f.cross {
		if d := e.xy + c*float64(e.floors); d > 0 {
			alpha = min(alpha, e.dist/d)
		}
	}
	return Bound{alpha: max(alpha, 0) * (1 - boundMargin), floorCost: c}
}

// Build computes distance matrices for every partition of the venue,
// and their Bound.
func Build(v *model.Venue) (*Set, error) {
	s := &Set{venue: v, mats: make([]Matrix, v.PartitionCount())}
	fit := boundFit{ratio: 1}
	for p := 0; p < v.PartitionCount(); p++ {
		pid := model.PartitionID(p)
		doors := v.DoorsOf(pid)
		m := &s.mats[p]
		m.doors = doors
		m.idx = make(map[model.DoorID]int, len(doors))
		for i, d := range doors {
			m.idx[d] = i
		}
		m.d = make([]float64, len(doors)*len(doors))
		for i := 0; i < len(doors); i++ {
			pi := v.Door(doors[i]).Pos
			for j := i + 1; j < len(doors); j++ {
				pj := v.Door(doors[j]).Pos
				xy := pi.DistXY(pj)
				dist, err := doorDistance(v, pid, doors[i], doors[j], xy)
				if err != nil {
					return nil, err
				}
				m.set(doors[i], doors[j], dist)
				fit.add(dist, xy, pi.Floor-pj.Floor)
			}
		}
	}
	s.bound = fit.bound()
	return s, nil
}

// doorDistance resolves the intra-partition distance between two doors
// xy apart in plan, trying overrides first, then geometry.
func doorDistance(v *model.Venue, p model.PartitionID, a, b model.DoorID, xy float64) (float64, error) {
	if d, ok := v.DistOverride(p, a, b); ok {
		return d, nil
	}
	part := v.Partition(p)
	da, db := v.Door(a), v.Door(b)
	if da.Pos.Floor != db.Pos.Floor {
		if part.Kind != model.StairwellPartition {
			return 0, fmt.Errorf(
				"dmat: doors %s and %s of non-stairwell partition %s lie on different floors and no distance override is set",
				da.Name, db.Name, part.Name)
		}
		// Stairwell without an explicit stairway length: fall back to the
		// planar distance plus a nominal flight length per floor.
		const flightLength = 20.0 // metres, the paper's stairway length
		floors := db.Pos.Floor - da.Pos.Floor
		if floors < 0 {
			floors = -floors
		}
		return xy + float64(floors)*flightLength, nil
	}
	return xy, nil
}

// Bound returns the venue's lower bound on walking distance.
func (s *Set) Bound() Bound { return s.bound }

// Matrix returns partition p's distance matrix.
func (s *Set) Matrix(p model.PartitionID) *Matrix { return &s.mats[p] }

// Dist returns DM(p, a, b), the intra-partition distance between doors a
// and b of partition p. It returns +Inf when either door is not attached
// to p, so a buggy caller surfaces as an unreachable route rather than a
// silently wrong short one.
func (s *Set) Dist(p model.PartitionID, a, b model.DoorID) float64 {
	d, ok := s.mats[p].Dist(a, b)
	if !ok {
		return math.Inf(1)
	}
	return d
}

// PointToDoor returns the walking distance from an in-partition point to
// door d of partition p (Euclidean; partitions are convex after
// decomposition). +Inf when d is not attached to p or floors mismatch.
func (s *Set) PointToDoor(p model.PartitionID, pt geom.Point, d model.DoorID) float64 {
	if _, ok := s.mats[p].idx[d]; !ok {
		return math.Inf(1)
	}
	door := s.venue.Door(d)
	if door.Pos.Floor != pt.Floor {
		return math.Inf(1)
	}
	return pt.DistXY(door.Pos)
}

// PointToPoint returns the in-partition walking distance between two
// points covered by the same (convex) partition.
func (s *Set) PointToPoint(p model.PartitionID, a, b geom.Point) float64 {
	if a.Floor != b.Floor {
		return math.Inf(1)
	}
	return a.DistXY(b)
}

// MemoryBytes estimates the total footprint of all matrices.
func (s *Set) MemoryBytes() int {
	total := 0
	for i := range s.mats {
		total += s.mats[i].MemoryBytes()
	}
	return total
}

// MaxDoorsPerPartition returns the largest matrix dimension, a venue
// complexity indicator used in stats.
func (s *Set) MaxDoorsPerPartition() int {
	max := 0
	for i := range s.mats {
		if n := s.mats[i].Size(); n > max {
			max = n
		}
	}
	return max
}
