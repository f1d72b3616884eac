package core

import (
	"math"

	"indoorpath/internal/dmat"
	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/pqueue"
	"indoorpath/internal/temporal"
)

// The search kernel: the one door-graph Dijkstra (Algorithm 1) behind
// Route, the shared RouteMany and RouteManyTo runs, the skeleton build,
// the waiting router and SingleSource. A search fixes its hooks up
// front — where it starts, what it looks for, which way it walks arcs
// and how it crosses doors. The heap orders labels: walked metres for
// the ITSPQ methods, crossing instants for the waiting search; Route
// and skeleton builds add a lower bound on the metres still to walk
// (search.goal). The kernel applies the target policy per popped door
// and partition entered, and picks the door list and door crossing per
// partition entered, so one relaxation loop serves every caller.
//
// Ties resolve one way in every search. Among equal labels a handle,
// the virtual target and a shared run's goal keep the lowest
// predecessor handle, and the heap pops equal keys in handle order. So
// an answer depends on which doors a search settles before its end,
// not on the order it pushed them.

// targetPolicy is what a search looks for.
type targetPolicy uint8

const (
	// toTarget relaxes Route's virtual target node into the heap and
	// stops when it pops.
	toTarget targetPolicy = iota
	// toGoals keeps one best entry per grouped query (searchState.goals)
	// and stops once the frontier has passed every entry.
	toGoals
	// toAnchors records every door entering the target partition
	// (searchState.anchors). A skeleton build stops once every enter
	// door of the target partition that can be crossed has settled
	// (searchState.anchorsLeft); otherwise the search runs until the
	// heap is exhausted, and with no target partition it records
	// nothing (SingleSource).
	toAnchors
)

// search is the parameter set of one kernel run.
type search struct {
	targets targetPolicy
	// reverse walks arcs backwards over enter doors: a destination-rooted
	// run over the arc-reversed door graph (RouteManyTo).
	reverse bool
	// root is the seed point in rootPart. A skeleton build seeds a door
	// instead; rootPart is then the partition the door is entered from.
	root     geom.Point
	rootPart model.PartitionID
	// target is toTarget's target point.
	target geom.Point
	// speed is set only by the waiting search, whose labels are
	// instants: its target leg adds leg/speed. Every other search's
	// labels are walked metres.
	speed float64
	// tgtPart holds the answer's end: toTarget's target, toAnchors'
	// anchors, a reverse run's root. It is never expanded from a door —
	// a route entering it and leaving again is longer (convex cells,
	// positive legs). NoPartition in forward shared runs, which expand
	// through their goals' partitions. rootPart and tgtPart are exempt
	// from the privacy rule.
	tgtPart model.PartitionID
	// cross is the per-door crossing; nil crosses every door at
	// base + leg.
	cross doorCrossing
	// prune serves an expansion from the checker's reduced leave-door
	// list when its whole arrival window fits one checkpoint slot.
	prune bool
	// everyDoor skips the early privacy prune (useful): SingleSource
	// reports private partitions as destinations, and the waiting
	// search keeps every relaxation, since each push shapes the heap's
	// order among the ties its opening instants make.
	everyDoor bool
	// goal keys the heap by a door's label plus bound.Dist from the
	// door to the nearest point of goalRect, and the target node by its
	// label: the goal-directed order of Route, whose goalRect is its
	// target point, and of a skeleton build, whose goalRect is the
	// target partition's. Every label stays a walked distance.
	goal     bool
	goalRect geom.Rect
	bound    dmat.Bound
}

// pointRect is the rectangle holding only p: a goal-directed Route's
// goal, whose bound.Dist from any door equals that to p.
func pointRect(p geom.Point) geom.Rect {
	return geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y, Floor: p.Floor}
}

// doorCrossing is the kernel's per-door hook: the label at which a
// walk that reaches door d by a leg from label base crosses it, or
// false when it cannot. The ITSPQ checkers (the engine's AccessChecker)
// return base + leg when their TV_Check passes; slotOpen does the same
// for skeleton builds, and waitOpen returns the waiting search's
// crossing instant.
type doorCrossing interface {
	cross(d model.DoorID, base, leg float64) (float64, bool)
}

// slotOpen is TV_Check under one checkpoint slot's frozen topology.
// Checkpoints are exactly the instants any ATI opens or closes, so a
// door's state at the slot start holds throughout the slot.
type slotOpen struct {
	v     *model.Venue
	start temporal.TimeOfDay
}

func (c *slotOpen) cross(d model.DoorID, base, leg float64) (float64, bool) {
	return base + leg, c.v.Door(d).OpenAt(c.start)
}

// goal is one grouped query of a shared run, updated with exactly
// Route's virtual-target relaxation rule (a shorter label, or an equal
// one through a lower predecessor handle).
type goal struct {
	idx  int // position in the caller's outcomes
	pt   geom.Point
	part model.PartitionID
	next int32 // next goal in part, -1 at the end
	dist float64
	via  int32 // settled handle whose expansion set the entry
	seen bool
	done bool // the frontier passed dist: the entry can no longer improve
}

// searchState is the engine's reusable working set. Handles are door
// IDs, then the root and the target sentinel; per-handle arrays are
// flat slices sized once per engine. A handle's dist, prevDoor and
// prevPart are valid only while seen[h] equals the current epoch, and
// settled and visited are epoch stamps too, so starting a search is one
// increment: the stamp arrays are cleared only when the epoch wraps.
type searchState struct {
	heap     *pqueue.Heap
	dist     []float64
	prevDoor []int32
	prevPart []model.PartitionID
	seen     []uint32
	settled  []uint32
	visited  []uint32 // per partition
	epoch    uint32
	touched  int // handles given a distance this search

	goals    []goal
	goalHead []int32 // per partition: its first goal, -1 for none
	pending  int     // goals not yet done
	anchors  []model.DoorID
	// anchorsLeft counts the enter doors of a skeleton build's target
	// partition, open in its slot, that have not settled yet; the
	// search stops when it reaches zero. reset zeroes it, and zero
	// never stops a search.
	anchorsLeft int
	// A skeleton build's sorted entry doors and the chains found so far.
	entries []model.DoorID
	chains  []*Skeleton
}

func newSearchState(v *model.Venue) *searchState {
	n := v.DoorCount() + 2
	st := &searchState{
		heap:     pqueue.New(n),
		dist:     make([]float64, n),
		prevDoor: make([]int32, n),
		prevPart: make([]model.PartitionID, n),
		seen:     make([]uint32, n),
		settled:  make([]uint32, n),
		visited:  make([]uint32, v.PartitionCount()),
		goalHead: make([]int32, v.PartitionCount()),
	}
	for i := range st.goalHead {
		st.goalHead[i] = -1
	}
	return st
}

// reset starts a new search.
func (st *searchState) reset() {
	st.heap.Reset()
	st.touched = 0
	st.anchorsLeft = 0
	if st.epoch++; st.epoch == 0 {
		clear(st.seen)
		clear(st.settled)
		clear(st.visited)
		st.epoch = 1
	}
}

// improve records distance d for handle h, reached through partition w
// from handle via, and queues h with heap key key.
func (st *searchState) improve(h int32, d, key float64, via int32, w model.PartitionID) {
	if st.seen[h] != st.epoch {
		st.seen[h] = st.epoch
		st.touched++
	}
	st.dist[h], st.prevDoor[h], st.prevPart[h] = d, via, w
	st.heap.Push(h, key)
}

// better reports whether label d reached from handle via improves
// handle h: h has no label yet, d is shorter, or d ties through a lower
// predecessor handle.
func (st *searchState) better(h int32, d float64, via int32) bool {
	return st.seen[h] != st.epoch || d < st.dist[h] || d == st.dist[h] && via < st.prevDoor[h]
}

// chainLen counts the doors on the prev chain from via back to root.
func (st *searchState) chainLen(via, root int32) int {
	n := 0
	for h := via; h != root; h = st.prevDoor[h] {
		n++
	}
	return n
}

// chain fills doors and parts along the prev chain ending at via, last
// door first; len(doors) is the chain's length.
func (st *searchState) chain(via int32, doors []model.DoorID, parts []model.PartitionID) {
	h := via
	for i := len(doors) - 1; i >= 0; i-- {
		doors[i], parts[i] = model.DoorID(h), st.prevPart[h]
		h = st.prevDoor[h]
	}
}

// settleGoals marks the goals the frontier has passed and reports
// whether none is pending. When the heap minimum passes a seen goal's
// distance, no later expansion can reach it with an equal or shorter
// label (legs are non-negative) — the instant a solo Route would pop
// its target node, whose handle follows every door's at an equal key.
func (st *searchState) settleGoals(frontier float64) bool {
	for i := range st.goals {
		if gl := &st.goals[i]; !gl.done && gl.seen && frontier > gl.dist {
			gl.done = true
			st.pending--
		}
	}
	return st.pending == 0
}

// state returns the engine's search state, allocating it on first use.
func (e *Engine) state() *searchState {
	if e.st == nil {
		e.st = newSearchState(e.v)
	}
	return e.st
}

// begin starts a point-rooted search departing at t0: the root handle
// at distance zero, after — under EagerHeapInit — every door and, with
// withTarget, the target node at ∞ (Algorithm 1 lines 2–7 literally).
func (e *Engine) begin(t0 temporal.TimeOfDay, speed float64, withTarget bool) {
	st := e.state()
	st.reset()
	e.checker.Begin(t0, speed)
	rootH := int32(e.v.DoorCount())
	if e.opts.EagerHeapInit {
		inf := math.Inf(1)
		for d := int32(0); d < rootH; d++ {
			st.heap.Push(d, inf)
		}
		if withTarget {
			st.heap.Push(rootH+1, inf)
		}
	}
	st.improve(rootH, 0, 0, rootH, model.NoPartition)
}

// run is the kernel loop. It reports whether the search met its end
// condition: the target node popped (toTarget), every goal done
// (toGoals) or a build's last anchor settled (toAnchors); otherwise the
// heap ran out, or held only ∞ entries.
func (e *Engine) run(s *search, stats *SearchStats) bool {
	st := e.st
	rootH := int32(e.v.DoorCount())
	for {
		item, ok := st.heap.Pop()
		if !ok || math.IsInf(item.Prio, 1) {
			return false
		}
		h := item.Key
		stats.Pops++
		switch s.targets {
		case toTarget:
			if h == rootH+1 {
				return true
			}
		case toGoals:
			if st.settleGoals(item.Prio) {
				return true
			}
		}
		if st.settled[h] == st.epoch {
			continue
		}
		st.settled[h] = st.epoch
		stats.Settled++
		base := st.dist[h]
		if h == rootH {
			e.enter(s, stats, s.rootPart, model.NoDoor, h, base)
			continue
		}
		// The partitions entered by crossing door h out of the one it
		// was reached through, resolved per arc so one-way doors hold
		// (Algorithm 1 line 27).
		from := st.prevPart[h]
		arcs := e.v.Door(model.DoorID(h)).Arcs
		for _, a := range arcs {
			near, far := a.From, a.To
			if s.reverse {
				near, far = far, near
			}
			if near == from {
				e.enter(s, stats, far, model.DoorID(h), h, base)
			}
		}
		// A settled door's label and prev link are final, so once the
		// last enter door of a build's target partition has settled, no
		// later pop can add or change a chain.
		if st.anchorsLeft > 0 && entersPart(arcs, s.tgtPart) {
			if st.anchorsLeft--; st.anchorsLeft == 0 {
				return true
			}
		}
	}
}

// entersPart reports whether one of a door's arcs enters p.
func entersPart(arcs []model.Arc, p model.PartitionID) bool {
	for _, a := range arcs {
		if a.To == p {
			return true
		}
	}
	return false
}

// enter handles partition w reached from settled handle h at distance
// base through anchor (NoDoor at the root): the target policy, then the
// expansion rules (Algorithm 1 lines 18–24).
func (e *Engine) enter(s *search, stats *SearchStats, w model.PartitionID, anchor model.DoorID, h int32, base float64) {
	st := e.st
	switch s.targets {
	case toTarget:
		if w == s.tgtPart {
			tgtH := int32(e.v.DoorCount()) + 1
			leg := e.pointLeg(s, w, anchor, s.target)
			if s.speed > 0 {
				leg /= s.speed
			}
			cand := base + leg
			if s.speed > 0 && cand >= float64(temporal.DaySeconds) {
				// The waiting search's labels are instants, and like
				// waitOpen.cross its final leg cannot end at or after
				// midnight.
				cand = math.Inf(1)
			}
			if st.better(tgtH, cand, h) && !math.IsInf(cand, 1) {
				st.improve(tgtH, cand, cand, h, w)
				stats.Relaxations++
			}
		}
	case toGoals:
		for i := st.goalHead[w]; i >= 0; i = st.goals[i].next {
			gl := &st.goals[i]
			if gl.done {
				continue
			}
			cand := base + e.pointLeg(s, w, anchor, gl.pt)
			if (!gl.seen || cand < gl.dist || cand == gl.dist && h < gl.via) && !math.IsInf(cand, 1) {
				gl.dist, gl.via, gl.seen = cand, h, true
				stats.Relaxations++
			}
		}
	case toAnchors:
		if w == s.tgtPart {
			st.anchors = append(st.anchors, model.DoorID(h))
		}
	}
	if w == s.tgtPart && (anchor != model.NoDoor || w != s.rootPart) {
		return
	}
	if e.opts.SinglePartitionExpansion && st.visited[w] == st.epoch {
		return
	}
	if w != s.rootPart && w != s.tgtPart && e.v.Partition(w).Kind.IsPrivate() {
		return // rule 2
	}
	if st.visited[w] != st.epoch {
		st.visited[w] = st.epoch
		stats.PartitionsVisited++
	}
	e.relax(s, stats, w, anchor, h, base)
}

// pointLeg is the leg inside w between point pt and the anchor, or the
// root point when the anchor is NoDoor; either way it is measured in
// the forward direction of the answer.
func (e *Engine) pointLeg(s *search, w model.PartitionID, anchor model.DoorID, pt geom.Point) float64 {
	switch {
	case anchor != model.NoDoor:
		return e.g.DM().PointToDoor(w, pt, anchor)
	case s.reverse:
		return e.g.DM().PointToPoint(w, pt, s.root)
	}
	return e.g.DM().PointToPoint(w, s.root, pt)
}

// relax relaxes every door of w the run may cross next from the anchor
// (Algorithm 1 lines 25–34). With s.prune, an expansion whose whole
// arrival window fits one checkpoint slot iterates the snapshot's
// reduced leave-door list instead, pruning closed doors up front and
// skipping the per-door crossing (exactly equivalent: listed doors are
// open throughout the slot). Every listed door is a door of w, so the
// distance matrices' door table places it in w's matrix: the anchor's
// row is read once, and each door's column and privacy bits through
// the table.
func (e *Engine) relax(s *search, stats *SearchStats, w model.PartitionID, anchor model.DoorID, h int32, base float64) {
	st := e.st
	dm := e.g.DM()
	m := dm.Matrix(w)
	doors, cross := e.v.LeaveDoors(w), s.cross
	if s.reverse {
		doors = e.v.EnterDoors(w)
	}
	if s.prune {
		// Bound the longest possible leg inside w: the largest DM entry
		// covers door-to-door legs; the rectangle diagonal covers the
		// root-point legs of the first expansion.
		maxLeg := m.MaxEntry()
		if anchor == model.NoDoor {
			r := e.v.Partition(w).Rect
			if diag := math.Hypot(r.Width(), r.Height()); diag > maxLeg {
				maxLeg = diag
			}
		}
		if pruned, exact := e.pruner.PrunedLeaveDoors(w, base, maxLeg); exact {
			doors, cross = pruned, nil
		}
	}
	// row holds the anchor's door-to-door legs; nil for the root point's
	// expansion and under the NoDistanceMatrix ablation.
	var row []float64
	if anchor != model.NoDoor && !e.opts.NoDistanceMatrix {
		sl, _ := dm.Slot(anchor, w)
		row = m.Row(sl.Row)
	}
	for _, dj := range doors {
		hj := int32(dj)
		if st.settled[hj] == st.epoch {
			continue
		}
		sl, _ := dm.Slot(dj, w)
		if !s.everyDoor && !e.useful(s, dj, w, sl) {
			continue
		}
		var leg float64
		switch {
		case row != nil:
			leg = row[sl.Row]
		case anchor == model.NoDoor:
			leg = dm.PointToDoor(w, s.root, dj)
		default:
			leg = e.legDist(w, anchor, dj)
		}
		if math.IsInf(leg, 1) {
			continue
		}
		label := base + leg
		if cross != nil {
			// TV_Check (line 30; see DESIGN.md on the printed polarity).
			var ok bool
			if label, ok = cross.cross(dj, base, leg); !ok {
				continue
			}
		}
		stats.Relaxations++
		if st.better(hj, label, h) {
			key := label
			if s.goal {
				pos := e.v.Door(dj).Pos
				key += s.bound.Dist(pos, s.goalRect.ClampPoint(pos))
			}
			st.improve(hj, label, key, h, w)
		}
	}
}

// useful is the early privacy prune (line 28): door d of w, placed in
// w's matrix at sl, is worth relaxing only if some partition it leads
// to from w — leads from, in a reverse run — is public or an
// endpoint's. The slot's bit answers the public case; only a door whose
// every such partition is private walks its arcs, for the endpoints'
// exemption.
func (e *Engine) useful(s *search, d model.DoorID, w model.PartitionID, sl dmat.Slot) bool {
	if (!s.reverse && sl.Out) || (s.reverse && sl.In) {
		return true
	}
	for _, a := range e.v.Door(d).Arcs {
		near, far := a.From, a.To
		if s.reverse {
			near, far = far, near
		}
		if near == w && (far == s.rootPart || far == s.tgtPart) {
			return true
		}
	}
	return false
}

// path builds a forward run's answer from the prev chain ending at via
// (Algorithm 1 lines 11–17): length is the target node's distance, and
// each arrival is the search's own distance at that door.
func (e *Engine) path(src, tgt geom.Point, via int32, tgtPart model.PartitionID, length float64,
	t0 temporal.TimeOfDay, speed float64) *Path {

	p := e.chainPath(src, tgt, via, tgtPart, t0)
	p.Length = length
	p.ArrivalAtTgt = t0 + temporal.TimeOfDay(length/speed)
	for i, d := range p.Doors {
		p.Arrivals[i] = t0 + temporal.TimeOfDay(e.st.dist[d]/speed)
	}
	return p
}

// chainPath allocates a forward answer for the prev chain ending at
// via: its doors, its partitions ending in tgtPart, and one arrival
// slot per door for the caller to fill.
func (e *Engine) chainPath(src, tgt geom.Point, via int32, tgtPart model.PartitionID, t0 temporal.TimeOfDay) *Path {
	st := e.st
	n := st.chainLen(via, int32(e.v.DoorCount()))
	p := &Path{
		Source:     src,
		Target:     tgt,
		Partitions: make([]model.PartitionID, n+1),
		Arrivals:   make([]temporal.TimeOfDay, n),
		DepartedAt: t0,
	}
	if n > 0 {
		p.Doors = make([]model.DoorID, n)
	}
	p.Partitions[n] = tgtPart
	st.chain(via, p.Doors, p.Partitions)
	return p
}

// walkedLength replays p's legs from p.Source to p.Target in path
// order: the additions a forward search makes along p, in the order it
// makes them, so the sum is bit-identical to that search's own. It
// allocates nothing.
func (e *Engine) walkedLength(p *Path) float64 {
	n := len(p.Doors)
	if n == 0 {
		return e.g.DM().PointToPoint(p.Partitions[0], p.Source, p.Target)
	}
	d := e.g.DM().PointToDoor(p.Partitions[0], p.Source, p.Doors[0])
	for i := 1; i < n; i++ {
		d += e.legDist(p.Partitions[i], p.Doors[i-1], p.Doors[i])
	}
	return d + e.g.DM().PointToDoor(p.Partitions[n], p.Target, p.Doors[n-1])
}

// reversePath turns a reverse run's prev chain into a forward Path: the
// chain from the entry door already reads source → target, and the
// length and distances are re-accumulated forward (walkedLength,
// PathDistances), so every float64 is the one a forward search would
// have produced even though the reverse run summed in the opposite
// order.
func (e *Engine) reversePath(src, tgt geom.Point, via int32, srcPart model.PartitionID,
	t0 temporal.TimeOfDay, speed float64) *Path {

	st := e.st
	n := st.chainLen(via, int32(e.v.DoorCount()))
	p := &Path{Source: src, Target: tgt, Partitions: make([]model.PartitionID, n+1), DepartedAt: t0}
	p.Partitions[0] = srcPart
	if n > 0 {
		p.Doors = make([]model.DoorID, n)
		for h, i := via, 0; i < n; h, i = st.prevDoor[h], i+1 {
			p.Doors[i], p.Partitions[i+1] = model.DoorID(h), st.prevPart[h]
		}
	}
	p.Length = e.walkedLength(p)
	p.Arrivals = make([]temporal.TimeOfDay, n)
	for i, d := range e.PathDistances(p, Query{Source: src}) {
		p.Arrivals[i] = t0 + temporal.TimeOfDay(d/speed)
	}
	p.ArrivalAtTgt = t0 + temporal.TimeOfDay(p.Length/speed)
	return p
}
