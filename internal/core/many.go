package core

import (
	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// This file implements shared execution: answering many ITSPQ queries
// that share an endpoint with ONE door-graph search instead of one per
// query (the shared-execution idea of Mahmud et al. applied to the
// ITSPQ framework; see doc.go "Shared execution" for the soundness
// argument). Two primitives:
//
//   - RouteMany: one source, many targets, one departure — a single
//     forward temporal search that keeps expanding past the first
//     target until every grouped target's entry is settled, then
//     reconstructs one path per target.
//   - RouteManyTo: many sources, one target — a single reverse run
//     rooted at the target. Only the static method is grouped (its
//     topology is time-invariant, so reversal is trivially sound); the
//     temporal methods fall back to per-source solo routes.
//
// RouteMany returns answers byte-identical to what a solo Engine.Route
// would produce for each query (same TV_Check semantics for
// syn/asyn/static), exact ties included: its goals take the kernel's
// tie rule exactly as Route's target node does (the one exception, a
// target on its partition's boundary in line with two of its doors, is
// in doc.go "Shared execution"). RouteManyTo's answers
// are byte-identical whenever the query's shortest valid path is
// unique — the generic case, and the condition real venues with
// irregular geometry satisfy. Under an exact float-length tie between
// distinct door sequences its reverse run breaks the tie from the
// target's end and may return the other, equally shortest, answer
// (both validate; both are optimal). This is what lets the serving
// layer cache and serve shared answers interchangeably with solo
// results. Targets (or sources) the shared
// run cannot soundly cover — private endpoint partitions, whose rule-2
// exemption is query-specific, stairwell endpoint partitions, whose
// doors span floors, or any query under the SinglePartitionExpansion
// ablation, whose answers are not expansion-order-free — are answered
// by internal per-query fallback searches and flagged Solo.

// ManyOutcome is one query's answer from a shared run. Path and Err are
// exactly what a solo Engine.Route would have returned for the query;
// Stats are the statistics of the run that produced the answer (the one
// shared search for grouped queries, the individual search for Solo
// fallbacks), with Found/PathHops/PathLength set per outcome.
type ManyOutcome struct {
	Path  *Path
	Stats SearchStats
	Err   error
	// Solo reports that this outcome came from an internal per-query
	// fallback search rather than the shared run (a private or
	// stairwell endpoint partition, SinglePartitionExpansion, or a
	// temporal-method RouteManyTo). Callers metering engine work count one search per
	// Solo outcome plus one for the shared run (if any non-Solo,
	// non-error outcome exists).
	Solo bool
}

// RouteMany answers ITSPQ(src, targets[j], at) for every target with at
// most one shared forward search plus per-target fallbacks (see
// ManyOutcome.Solo). Outcomes align positionally with targets, each
// byte-identical to a solo Engine.Route of the same query. speed <= 0
// means the paper's walking speed, mirroring Query.Speed.
func (e *Engine) RouteMany(src geom.Point, targets []geom.Point, at temporal.TimeOfDay, speed float64) []ManyOutcome {
	out := make([]ManyOutcome, len(targets))
	name := e.checker.Name()
	srcPart, err := e.locate(src, "source")
	if err != nil {
		for j := range out {
			out[j] = ManyOutcome{Stats: SearchStats{Method: name}, Err: err}
		}
		return out
	}
	st := e.state()
	st.goals = st.goals[:0]
	var solo []int
	for j, pt := range targets {
		part, err := e.locate(pt, "target")
		switch {
		case err != nil:
			out[j] = ManyOutcome{Stats: SearchStats{Method: name}, Err: err}
		case e.opts.SinglePartitionExpansion || !e.expandable(part, srcPart):
			// The ablation's answers depend on expansion order; a target
			// partition the run cannot expand through needs Route's own
			// search. Both go to byte-identical-by-construction solo
			// searches.
			solo = append(solo, j)
		default:
			st.goals = append(st.goals, goal{idx: j, pt: pt, part: part})
		}
	}
	if len(st.goals) > 0 {
		// The one shared forward search: Route with the per-target
		// special cases hoisted out of the expansion. Each target keeps
		// a goal entry instead of a virtual node in the heap, and the
		// run expands through grouped target partitions (tgtPart is
		// NoPartition): under the convex-cell model a shortest route
		// never leaves and re-enters its target's partition, so every
		// per-target prev chain is the one the pruned solo search
		// builds. Stairwells break that model, since their doors span
		// floors, so their targets run solo. Rule 2 needs no per-target
		// exemption: grouped target partitions are never private.
		e.runShared(&search{targets: toGoals, root: src, rootPart: srcPart, tgtPart: model.NoPartition,
			cross: e.cross, prune: e.pruner != nil}, at, speed, out)
	}
	for _, j := range solo {
		p, st, err := e.Route(Query{Source: src, Target: targets[j], At: at, Speed: speed})
		out[j] = ManyOutcome{Path: p, Stats: st, Err: err, Solo: true}
	}
	return out
}

// expandable reports whether a shared run, which expands through its
// goals' partitions, can answer a goal in partition part of a query
// whose other endpoint lies in root. A private partition is exempt from
// rule 2 only for its own query, so expanding through it would be
// query-specific. A stairwell's doors span floors, and a point leg to a
// door on another floor is +Inf: expanding through the stairwell
// settles its doors from inside, so the run never enters it through
// the door on the goal's floor.
func (e *Engine) expandable(part, root model.PartitionID) bool {
	switch kind := e.v.Partition(part).Kind; {
	case kind == model.StairwellPartition:
		return false
	case kind.IsPrivate():
		return part == root
	}
	return true
}

// runShared runs the one shared search of RouteMany or RouteManyTo
// over the goals in the engine state and writes each goal's outcome:
// every outcome carries the run's stats, with Found, PathHops and
// PathLength set per goal.
func (e *Engine) runShared(s *search, at temporal.TimeOfDay, speed float64, out []ManyOutcome) {
	t0 := at.Mod()
	if speed <= 0 {
		speed = WalkingSpeedMPS
	}
	run := SearchStats{Method: e.checker.Name()}
	e.begin(t0, speed, false)
	st := e.st
	// Link each partition's goals in ascending order.
	for i := len(st.goals) - 1; i >= 0; i-- {
		gl := &st.goals[i]
		gl.next, st.goalHead[gl.part] = st.goalHead[gl.part], int32(i)
	}
	st.pending = len(st.goals)
	e.run(s, &run)
	e.finishStats(&run)
	for _, gl := range st.goals {
		st.goalHead[gl.part] = -1
	}
	for _, gl := range st.goals {
		if !gl.seen {
			out[gl.idx] = ManyOutcome{Stats: run, Err: ErrNoRoute}
			continue
		}
		var p *Path
		if s.reverse {
			p = e.reversePath(gl.pt, s.root, gl.via, gl.part, t0, speed)
		} else {
			p = e.path(s.root, gl.pt, gl.via, gl.part, gl.dist, t0, speed)
		}
		stats := run
		stats.Found = true
		stats.PathHops = p.Hops()
		stats.PathLength = p.Length
		out[gl.idx] = ManyOutcome{Path: p, Stats: stats}
	}
}

// RouteManyTo answers ITSPQ(sources[j], tgt, at) for every source.
// With the static method the group is served by one reverse run rooted
// at the target (the accessibility graph is time-invariant, so the
// reverse shortest tree reproduces every forward answer; distances and
// arrivals are re-derived by a forward leg replay, bit-identical to a
// solo search). The temporal methods cannot soundly share a
// destination-rooted run — TV_Check probes openness at the *forward*
// walked distance, which differs per source — so they fall back to solo
// routes per source, as do sources in private or stairwell partitions.
func (e *Engine) RouteManyTo(sources []geom.Point, tgt geom.Point, at temporal.TimeOfDay, speed float64) []ManyOutcome {
	out := make([]ManyOutcome, len(sources))
	name := e.checker.Name()
	tgtPart, tgtErr := e.locate(tgt, "target")
	st := e.state()
	st.goals = st.goals[:0]
	var solo []int
	for j, pt := range sources {
		part, err := e.locate(pt, "source")
		switch {
		case err != nil:
			// Route checks the source first, so an unlocatable source
			// wins over an unlocatable target.
			out[j] = ManyOutcome{Stats: SearchStats{Method: name}, Err: err}
		case tgtErr != nil:
			out[j] = ManyOutcome{Stats: SearchStats{Method: name}, Err: tgtErr}
		case e.opts.Method != MethodStatic || e.opts.SinglePartitionExpansion || !e.expandable(part, tgtPart):
			solo = append(solo, j)
		default:
			st.goals = append(st.goals, goal{idx: j, pt: pt, part: part})
		}
	}
	if len(st.goals) > 0 {
		// The one reverse run: a Dijkstra over the arc-reversed door
		// graph, rooted inside the target's partition, mirroring Route
		// arc for arc. The target's partition is expanded only from the
		// root (Route never expands through its target partition); rule
		// 2 exempts it, and grouped source partitions are never private
		// or stairwells;
		// reverse-entering a grouped source's partition sets that
		// source's candidate, the mirror image of Route's first
		// expansion out of the source partition. No door is checked:
		// only the static method shares a reverse run.
		e.runShared(&search{targets: toGoals, reverse: true, root: tgt, rootPart: tgtPart, tgtPart: tgtPart},
			at, speed, out)
	}
	for _, j := range solo {
		p, st, err := e.Route(Query{Source: sources[j], Target: tgt, At: at, Speed: speed})
		out[j] = ManyOutcome{Path: p, Stats: st, Err: err, Solo: true}
	}
	return out
}

// RebaseDeparture restates a found answer for query q's own departure:
// the door and partition slices are shared (paths are immutable), the
// length is unchanged, and every arrival is recomputed as t' +
// dist_i/speed from the engine's own leg replay (PathDistances) — bit-
// identical to what a fresh search departing at t' would return. Sound
// only when the engine's answer is provably departure-independent: the
// static method, whose checker ignores time entirely. p must be a
// found, no-waiting answer for q's endpoints and speed.
func (e *Engine) RebaseDeparture(p *Path, q Query) *Path {
	t0 := q.At.Mod()
	speed := q.speed()
	dists := e.PathDistances(p, q)
	arrivals := make([]temporal.TimeOfDay, len(dists))
	for i, d := range dists {
		arrivals[i] = t0 + temporal.TimeOfDay(d/speed)
	}
	return &Path{
		Source:       p.Source,
		Target:       p.Target,
		Doors:        p.Doors,
		Partitions:   p.Partitions,
		Length:       p.Length,
		Arrivals:     arrivals,
		ArrivalAtTgt: t0 + temporal.TimeOfDay(p.Length/speed),
		DepartedAt:   t0,
	}
}
