package core

import (
	"math"
	"slices"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// Point-free answers: a Skeleton is the door-to-door portion of an
// ITSPQ answer with both point-dependent legs factored out, so one
// stored chain serves every query whose endpoints fall anywhere inside
// the same (source partition, target partition) pair. A SkeletonFamily
// holds every chain the pair can answer with under one checkpoint
// slot's frozen topology; ComposeSkeleton stitches first-leg + chain +
// last-leg back into a full Path for a concrete query, refusing
// whenever the composition cannot be certified byte-identical to a
// fresh engine run. See doc.go "# Point-free answers" for the
// soundness argument.

// SkeletonStaticSlot is the pseudo-slot of a time-blind (MethodStatic)
// family: all doors open, the whole day certified.
const SkeletonStaticSlot = -1

// Skeleton is one immutable door-to-door chain of a family: the entry
// door leaving the source partition, the full door sequence ending at
// the anchor door entering the target partition, the partition
// sequence threading them, and the per-leg intra-partition distances.
// Legs[0] is always zero — the first leg runs from the query's own
// source point and is supplied at composition time; Legs[i] (i >= 1)
// is the engine's leg from Doors[i-1] to Doors[i] inside
// Partitions[i]. Storing legs rather than cumulative sums lets
// composition replay the engine's left-to-right accumulation — the
// same float64 additions in the same order — so rebased distances and
// arrivals are bit-identical to a fresh search's.
type Skeleton struct {
	Entry      model.DoorID
	Anchor     model.DoorID
	Doors      []model.DoorID
	Partitions []model.PartitionID // len(Doors)+1; [0] = family src, last = family tgt
	Legs       []float64           // same length as Doors; Legs[0] == 0
}

// SkeletonFamily is every chain stored for one (source partition,
// target partition) pair under one checkpoint slot's frozen topology:
// for each usable entry door of the source partition, the best chain
// to each reachable anchor door of the target partition. Immutable
// once built; safe to share across goroutines.
type SkeletonFamily struct {
	Src, Tgt model.PartitionID
	// Slot is the checkpoint slot the chains were built against, or
	// SkeletonStaticSlot for a time-blind family.
	Slot int
	// Window is the slot's departure interval (the full day for a
	// static family): the band inside which the frozen topology — and
	// so the family's optimality — holds, before the per-answer walk
	// clamp ComposeSkeleton applies on top.
	Window temporal.Interval
	// Chains are ordered by ascending (Entry, Anchor) so composition's
	// strict-improvement scan is deterministic.
	Chains []*Skeleton
}

// BuildSkeletonFamily computes the (srcPart, tgtPart) family for the
// checkpoint slot containing at (the whole day for MethodStatic). It
// runs one frozen-topology search per usable entry door of srcPart,
// ascending by door ID, each seeded at the door entered from srcPart at
// distance zero. The best anchor for a concrete query depends on its
// target point, so every anchor's chain is kept, and a search stops
// only once every enter door of tgtPart open in the slot has settled:
// a settled door's label and chain are final. Until then it pops doors
// by label plus a lower bound on the distance to tgtPart's rectangle,
// which is consistent, so every door settles with the label and the
// predecessor Algorithm 1's order gives it (see doc.go). A stairwell
// target, whose doors span floors, keeps the plain order, and under
// NoGoalBound every search runs in the plain order to exhaustion. An
// enter door the search cannot reach leaves it to exhaust the heap.
// The searches are the kernel's, so they mirror Route exactly —
// prevPart-threaded arcs, the privacy rule with srcPart/tgtPart exempt,
// no expansion through the target partition, the engine's own leg
// arithmetic — with every TV_Check replaced by the door's constant
// openness over the slot. It returns nil when no family can be built:
// same partition pair (the direct point-to-point candidate is not
// expressible door-to-door), the SinglePartitionExpansion ablation (its
// visited-partition gate makes per-entry-door decomposition unsound),
// or no open entry door reaches the target partition.
//
// The caller must hold the engine exclusively (the usual checked-out
// discipline). The build runs on the engine's search state, so it
// allocates only the family and its chains; the engine stays ready
// for further searches. A build reports no counters.
func (e *Engine) BuildSkeletonFamily(srcPart, tgtPart model.PartitionID, at temporal.TimeOfDay) *SkeletonFamily {
	var stats SearchStats
	return e.buildFamily(srcPart, tgtPart, at, &stats)
}

// buildFamily is BuildSkeletonFamily, adding its searches' effort to
// stats.
func (e *Engine) buildFamily(srcPart, tgtPart model.PartitionID, at temporal.TimeOfDay, stats *SearchStats) *SkeletonFamily {
	if srcPart == tgtPart || e.opts.SinglePartitionExpansion {
		return nil
	}
	slot, window := SkeletonStaticSlot, temporal.Interval{Open: 0, Close: temporal.DaySeconds}
	s := search{targets: toAnchors, rootPart: srcPart, tgtPart: tgtPart}
	if e.opts.Method != MethodStatic {
		cps := e.g.Checkpoints()
		slot = cps.SlotOf(at.Mod())
		window = temporal.Interval{Open: cps.SlotStart(slot), Close: cps.SlotEnd(slot)}
		e.frozen = slotOpen{v: e.v, start: window.Open}
		s.cross = &e.frozen
	}
	// The anchors that can exist: tgtPart's enter doors open in the
	// slot (a settled door has been crossed, so it is open). Zero, the
	// count under NoGoalBound, runs every search to exhaustion.
	anchors := 0
	if !e.opts.NoGoalBound {
		for _, d := range e.v.EnterDoors(tgtPart) {
			if s.cross == nil || e.v.Door(d).OpenAt(window.Open) {
				anchors++
			}
		}
		if anchors == 0 {
			return nil
		}
		if tp := e.v.Partition(tgtPart); tp.TopFloor == tp.Rect.Floor {
			s.goal, s.goalRect, s.bound = true, tp.Rect, e.g.DM().Bound()
		}
	}
	st := e.state()
	rootH := int32(e.v.DoorCount())
	st.entries = append(st.entries[:0], e.v.LeaveDoors(srcPart)...)
	slices.Sort(st.entries)
	for _, a := range st.entries {
		sl, _ := e.g.DM().Slot(a, srcPart)
		if (s.cross != nil && !e.v.Door(a).OpenAt(window.Open)) || !e.useful(&s, a, srcPart, sl) {
			continue
		}
		st.reset()
		st.anchors = st.anchors[:0]
		st.anchorsLeft = anchors
		st.improve(int32(a), 0, 0, rootH, srcPart)
		e.run(&s, stats)
		slices.Sort(st.anchors)
		for _, b := range st.anchors {
			n := st.chainLen(int32(b), rootH)
			sk := &Skeleton{
				Entry:      a,
				Anchor:     b,
				Doors:      make([]model.DoorID, n),
				Partitions: make([]model.PartitionID, n+1),
				Legs:       make([]float64, n),
			}
			sk.Partitions[n] = tgtPart
			st.chain(int32(b), sk.Doors, sk.Partitions)
			for i := 1; i < n; i++ {
				sk.Legs[i] = e.legDist(sk.Partitions[i], sk.Doors[i-1], sk.Doors[i])
			}
			st.chains = append(st.chains, sk)
		}
	}
	if len(st.chains) == 0 {
		return nil
	}
	fam := &SkeletonFamily{Src: srcPart, Tgt: tgtPart, Slot: slot, Window: window, Chains: slices.Clone(st.chains)}
	clear(st.chains) // drop the state's references to the returned chains
	st.chains = st.chains[:0]
	return fam
}

// ComposeSkeletonPath stitches first-leg + chain + last-leg for a
// concrete query against a stored family, without needing an engine:
// it reads only the immutable graph (the distance matrices), so cache
// probes can compose before any engine is checked out. It returns
// (nil, false) — the caller falls through to an engine search —
// whenever the composition cannot be certified byte-identical to a
// fresh run:
//
//   - the departure falls outside the family's slot window;
//   - no chain reaches both endpoints with finite legs;
//   - the composed walk would cross the slot's closing checkpoint
//     (the AnswerWindow clamp: t + length/speed must stay inside the
//     slot a temporal family was built for);
//   - two chains tie exactly for the minimum length (the engine's
//     winner would depend on settle order, which the table cannot
//     replay).
//
// The returned path's distances and arrivals replay the engine's
// accumulation order exactly (PathDistances arithmetic), so a served
// composition matches a fresh sequential Route bit for bit.
func ComposeSkeletonPath(g *itgraph.Graph, src, tgt geom.Point, at temporal.TimeOfDay,
	speed float64, fam *SkeletonFamily) (*Path, bool) {

	if fam == nil || len(fam.Chains) == 0 {
		return nil, false
	}
	t0 := at.Mod()
	if speed <= 0 {
		speed = WalkingSpeedMPS
	}
	if fam.Slot != SkeletonStaticSlot && !fam.Window.Contains(t0) {
		return nil, false
	}
	dm := g.DM()
	best := -1
	bestLen := math.Inf(1)
	tied := false
	for ci, sk := range fam.Chains {
		first := dm.PointToDoor(fam.Src, src, sk.Entry)
		last := dm.PointToDoor(fam.Tgt, tgt, sk.Anchor)
		if math.IsInf(first, 1) || math.IsInf(last, 1) {
			continue
		}
		// Replay the engine's accumulation left to right; a running
		// partial sum in any other association could round differently
		// and mis-rank near-equal chains.
		d := first
		for i := 1; i < len(sk.Legs); i++ {
			d += sk.Legs[i]
		}
		total := d + last
		switch {
		case total < bestLen:
			best, bestLen, tied = ci, total, false
		case total == bestLen:
			tied = true
		}
	}
	if best < 0 || tied {
		return nil, false
	}
	if fam.Slot != SkeletonStaticSlot {
		walk := temporal.TimeOfDay(bestLen / speed)
		if t0+walk >= fam.Window.Close {
			return nil, false
		}
	}
	sk := fam.Chains[best]
	n := len(sk.Doors)
	dists := make([]float64, n)
	arrivals := make([]temporal.TimeOfDay, n)
	d := dm.PointToDoor(fam.Src, src, sk.Entry)
	dists[0] = d
	for i := 1; i < n; i++ {
		d += sk.Legs[i]
		dists[i] = d
	}
	length := d + dm.PointToDoor(fam.Tgt, tgt, sk.Anchor)
	for i := range dists {
		arrivals[i] = t0 + temporal.TimeOfDay(dists[i]/speed)
	}
	return &Path{
		Source:       src,
		Target:       tgt,
		Doors:        sk.Doors,
		Partitions:   sk.Partitions,
		Length:       length,
		Arrivals:     arrivals,
		ArrivalAtTgt: t0 + temporal.TimeOfDay(length/speed),
		DepartedAt:   t0,
	}, true
}

// ComposeSkeleton is ComposeSkeletonPath bound to this engine's graph
// — the form callers holding an engine use.
func (e *Engine) ComposeSkeleton(src, tgt geom.Point, at temporal.TimeOfDay,
	speed float64, sk *SkeletonFamily) (*Path, bool) {
	return ComposeSkeletonPath(e.g, src, tgt, at, speed, sk)
}
