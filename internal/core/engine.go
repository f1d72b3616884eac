package core

import (
	"fmt"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
)

// Method selects the TV_Check strategy of the ITSPQ framework.
type Method uint8

// Available methods.
const (
	// MethodSyn is ITG/S: synchronous per-door ATI lookup (Algorithm 2).
	MethodSyn Method = iota
	// MethodAsyn is ITG/A: asynchronous snapshot probes (Algorithms 3–4).
	MethodAsyn
	// MethodStatic ignores temporal variation entirely — the classic
	// ISPQ baseline; returned paths may cross closed doors.
	MethodStatic
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodSyn:
		return "ITG/S"
	case MethodAsyn:
		return "ITG/A"
	case MethodStatic:
		return "Static"
	}
	return fmt.Sprintf("Method(%d)", uint8(m))
}

// Options tune the engine. The zero value gives the paper's ITG/S
// answers, found in Route's goal-directed order (see NoGoalBound).
type Options struct {
	Method Method
	// EagerHeapInit enheaps every door with distance ∞ up front, the
	// literal initialisation of Algorithm 1 lines 2–5. The default is
	// standard lazy insertion (identical results; ablation A1 measures
	// the difference).
	EagerHeapInit bool
	// NoDistanceMatrix recomputes intra-partition distances from door
	// geometry on every relaxation instead of reading the materialised
	// DM (ablation A3).
	NoDistanceMatrix bool
	// SinglePartitionExpansion reproduces Algorithm 1 line 18 literally:
	// each partition is expanded only from the first door that settles
	// into it ("\ visited partitions"). This is faster but suboptimal in
	// elongated partitions — a door settling later through a nearer
	// entrance never relaxes the partition's remaining doors. The
	// default expands a partition from every settled entering door
	// (exact door-graph Dijkstra, Lu et al. 2012); ablation A6 measures
	// the difference. See DESIGN.md interpretation note 8.
	SinglePartitionExpansion bool
	// NoGoalBound restores Algorithm 1's pop order in Route. By default
	// Route keys its heap by the walked distance plus a consistent
	// lower bound on the distance still to walk (dmat.Bound), so it
	// settles far fewer doors; the answers are identical, only the
	// effort counters change. The paper's figures measure Algorithm 1,
	// and ablation A7 measures the difference. The other searches, and
	// Route under SinglePartitionExpansion, whose answers depend on
	// expansion order, always keep the plain order.
	NoGoalBound bool
}

// SearchStats describes one query execution for the experiment harness
// and the server's route responses (JSON-tagged for the wire).
type SearchStats struct {
	Method            string       `json:"method"`
	Pops              int          `json:"pops"`          // heap extractions
	Settled           int          `json:"settled"`       // doors finalised
	Relaxations       int          `json:"relaxations"`   // candidate door updates attempted
	DoorsTouched      int          `json:"doors_touched"` // distinct doors assigned a finite distance
	PartitionsVisited int          `json:"partitions_visited"`
	HeapMax           int          `json:"heap_max"`
	Checker           CheckerStats `json:"checker"`
	// BytesEstimate models the search working set: per-door distance
	// and parent entries, heap slots, the visited and settled marks, and
	// (for ITG/A) the snapshots consulted. It is the deterministic
	// memory metric behind Fig. 7 (see finishStats); the harness also
	// reports live heap allocations.
	BytesEstimate int     `json:"bytes_estimate"`
	Found         bool    `json:"found"`
	PathHops      int     `json:"path_hops"`
	PathLength    float64 `json:"path_length"`
}

// Engine answers ITSPQ queries over one IT-Graph. Every search it runs
// — Route, the shared RouteMany and RouteManyTo runs, skeleton builds,
// and the searches of a WaitingRouter and of SingleSource, which own an
// engine each — is one pass of the search kernel (kernel.go) over the
// engine's searchState: flat per-door slices and a slice-indexed heap,
// allocated on the first search and reused by every later one. An
// Engine is therefore NOT safe for concurrent use. The intended concurrent
// deployment is one engine per goroutine over one shared Graph — the
// graph, venue, distance matrices and snapshot series are all safe for
// concurrent readers — and service.Pool packages exactly that pattern:
// it keeps warm engines in a sync.Pool and checks one out per query.
// NewEngine is cheap; a pooled engine's state outlives its checkouts.
type Engine struct {
	g       *itgraph.Graph
	v       *model.Venue
	opts    Options
	checker AccessChecker
	cross   doorCrossing // the checker's door crossing
	pruner  leavePruner  // the checker's reduced leave lists, if it has them
	frozen  slotOpen     // a skeleton build's door crossing
	wait    waitOpen     // the waiting search's door crossing
	st      *searchState
}

// NewEngine builds an engine for the graph with the given options.
func NewEngine(g *itgraph.Graph, opts Options) *Engine {
	e := &Engine{
		g:    g,
		v:    g.Venue(),
		opts: opts,
	}
	switch opts.Method {
	case MethodAsyn:
		e.checker = NewAsynChecker(g)
	case MethodStatic:
		e.checker = &alwaysOpenChecker{}
	default:
		e.checker = NewSynChecker(g)
	}
	e.cross = e.checker.(doorCrossing)
	e.pruner, _ = e.checker.(leavePruner)
	return e
}

// Graph returns the engine's IT-Graph.
func (e *Engine) Graph() *itgraph.Graph { return e.g }

// MethodName returns the display name of the configured method.
func (e *Engine) MethodName() string { return e.checker.Name() }

// legDist returns the intra-partition distance between two doors of
// partition p, honouring the NoDistanceMatrix ablation.
func (e *Engine) legDist(p model.PartitionID, a, b model.DoorID) float64 {
	if !e.opts.NoDistanceMatrix {
		return e.g.DM().Dist(p, a, b)
	}
	if d, ok := e.v.DistOverride(p, a, b); ok {
		return d
	}
	da, db := e.v.Door(a), e.v.Door(b)
	if da.Pos.Floor != db.Pos.Floor {
		return e.g.DM().Dist(p, a, b) // stairwells always use the DM
	}
	return da.Pos.DistXY(db.Pos)
}

// Route answers ITSPQ(q.Source, q.Target, q.At). On success it returns
// the valid shortest path under the paper's semantics; when no valid
// path exists the error is ErrNoRoute. Stats are returned in both
// cases.
func (e *Engine) Route(q Query) (*Path, SearchStats, error) {
	stats := SearchStats{Method: e.checker.Name()}
	srcPart, tgtPart, err := e.endpoints(q)
	if err != nil {
		return nil, stats, err
	}
	t0 := q.At.Mod()
	speed := q.speed()
	e.begin(t0, speed, true)
	s := search{targets: toTarget, root: q.Source, rootPart: srcPart, target: q.Target, tgtPart: tgtPart,
		cross: e.cross, prune: e.pruner != nil,
		goal: !e.opts.NoGoalBound && !e.opts.SinglePartitionExpansion, bound: e.g.DM().Bound()}
	if !e.run(&s, &stats) {
		e.finishStats(&stats)
		return nil, stats, ErrNoRoute
	}
	tgtH := int32(e.v.DoorCount()) + 1
	p := e.path(q.Source, q.Target, e.st.prevDoor[tgtH], tgtPart, e.st.dist[tgtH], t0, speed)
	stats.Found = true
	stats.PathHops = p.Hops()
	stats.PathLength = p.Length
	e.finishStats(&stats)
	return p, stats, nil
}

// endpoints locates q's source and target partitions. The error names
// the endpoint and the point that no partition covers.
func (e *Engine) endpoints(q Query) (src, tgt model.PartitionID, err error) {
	if src, err = e.locate(q.Source, "source"); err == nil {
		tgt, err = e.locate(q.Target, "target")
	}
	return src, tgt, err
}

// locate finds the partition of endpoint pt, named end in the error.
func (e *Engine) locate(pt geom.Point, end string) (model.PartitionID, error) {
	if part, ok := e.v.Locate(pt); ok {
		return part, nil
	}
	return model.NoPartition, fmt.Errorf("%w: %s %v", ErrNotIndoor, end, pt)
}

// finishStats derives the aggregate counters of the search just run.
// BytesEstimate is the fixed working-set model behind Fig. 7, kept
// constant so figures stay comparable: three 48-byte entries per
// touched handle (distance and both parent links), one 16-byte heap
// slot per high-water entry, 16 bytes per visited partition and per
// settled door, plus the snapshot bytes the checker consulted.
func (e *Engine) finishStats(s *SearchStats) {
	s.DoorsTouched = e.st.touched
	s.HeapMax = e.st.heap.MaxLen()
	s.Checker = e.checker.Stats()
	s.BytesEstimate = s.DoorsTouched*3*48 +
		s.HeapMax*16 +
		s.PartitionsVisited*16 + s.Settled*16 +
		s.Checker.SnapshotBytes
}

// RouteOrNil is Route for callers that treat "no route" as a regular
// outcome: it returns nil without error in that case.
func (e *Engine) RouteOrNil(q Query) (*Path, SearchStats, error) {
	p, st, err := e.Route(q)
	if err == ErrNoRoute {
		return nil, st, nil
	}
	return p, st, err
}
