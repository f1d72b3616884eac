package core

import (
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// StaticRouter is the temporal-unaware baseline: the classic indoor
// shortest path query over the accessibility graph (Lu et al., ICDE
// 2012). It honours door directionality and partition privacy but
// ignores ATIs entirely, so its answers may cross doors that are closed
// on arrival — exactly the failure mode motivating ITSPQ.
type StaticRouter struct {
	engine *Engine
}

// NewStaticRouter builds the baseline router.
func NewStaticRouter(g *itgraph.Graph) *StaticRouter {
	return &StaticRouter{engine: NewEngine(g, Options{Method: MethodStatic})}
}

// Route returns the static shortest path, which may be temporally
// invalid.
func (r *StaticRouter) Route(q Query) (*Path, SearchStats, error) {
	return r.engine.Route(q)
}

// StaticThenValidate is the naive temporal strategy: compute the static
// shortest path, then check it against the ATIs. It returns ErrNoRoute
// whenever the single static path happens to cross a closed door, even
// though a slightly longer valid path may exist — the second reason the
// paper gives for why precomputed static answers are insufficient.
func StaticThenValidate(g *itgraph.Graph, q Query) (*Path, error) {
	r := NewStaticRouter(g)
	p, _, err := r.Route(q)
	if err != nil {
		return nil, err
	}
	for i, d := range p.Doors {
		if !g.Venue().Door(d).OpenAt(p.Arrivals[i].Mod()) {
			return nil, ErrNoRoute
		}
	}
	return p, nil
}

// WaitingRouter implements the extension the paper leaves as future
// work (footnote 2): routing with waiting tolerance. The objective
// changes from shortest distance to earliest arrival — a user reaching
// a closed door may wait for its next opening. The search is the
// engine's kernel with crossing instants as labels: the root is the
// departure instant, and a door is crossed at its next opening after
// the walk reaches it. Since waiting is allowed, arrival functions are
// FIFO and label-setting Dijkstra is exact. A router owns an engine,
// so like an Engine it is not safe for concurrent use.
type WaitingRouter struct {
	engine *Engine
}

// NewWaitingRouter builds an earliest-arrival router for the graph.
func NewWaitingRouter(g *itgraph.Graph) *WaitingRouter {
	return &WaitingRouter{engine: NewEngine(g, Options{})}
}

// Route returns the earliest-arrival path from q.Source to q.Target
// departing at q.At, waiting at closed doors when beneficial. The
// returned path reports walked Length, per-door crossing times and
// TotalWait. ErrNoRoute when the target is unreachable before midnight.
func (r *WaitingRouter) Route(q Query) (*Path, error) {
	return r.engine.routeWaiting(q)
}

// waitOpen is the waiting search's door crossing: walk the leg at the
// query's speed, then wait for the door's next opening. A walk that
// reaches the door at or after midnight, or a door that does not open
// again that day, cannot cross.
type waitOpen struct {
	v     *model.Venue
	speed float64
}

func (c *waitOpen) cross(d model.DoorID, base, leg float64) (float64, bool) {
	walk := base + leg/c.speed
	if walk >= float64(temporal.DaySeconds) {
		return 0, false
	}
	at, ok := c.v.Door(d).ATIs.NextOpening(temporal.TimeOfDay(walk))
	return float64(at), ok
}

// routeWaiting runs WaitingRouter.Route's search. Labels are absolute
// seconds of day, rooted at the departure instant, and doors leading
// only into private partitions are relaxed too (search.everyDoor).
// Since the labels are instants, the walked length is replayed leg by
// leg along the answer's chain.
func (e *Engine) routeWaiting(q Query) (*Path, error) {
	srcPart, tgtPart, err := e.endpoints(q)
	if err != nil {
		return nil, err
	}
	t0, speed := q.At.Mod(), q.speed()
	st := e.state()
	st.reset()
	rootH := int32(e.v.DoorCount())
	st.improve(rootH, float64(t0), float64(t0), rootH, model.NoPartition)
	e.wait = waitOpen{v: e.v, speed: speed}
	s := search{targets: toTarget, root: q.Source, rootPart: srcPart, target: q.Target, tgtPart: tgtPart,
		speed: speed, cross: &e.wait, everyDoor: true}
	var stats SearchStats
	if !e.run(&s, &stats) {
		return nil, ErrNoRoute
	}
	tgtH := rootH + 1
	p := e.chainPath(q.Source, q.Target, st.prevDoor[tgtH], tgtPart, t0)
	for i, d := range p.Doors {
		p.Arrivals[i] = temporal.TimeOfDay(st.dist[d])
	}
	p.Length = e.walkedLength(p)
	p.ArrivalAtTgt = temporal.TimeOfDay(st.dist[tgtH])
	if wait := p.ArrivalAtTgt - t0 - temporal.TimeOfDay(p.Length/speed); wait > 0 {
		p.TotalWait = wait
	}
	return p, nil
}
