// Package itgraph implements the Indoor Temporal-variation Graph
// (IT-Graph) of Liu et al. (ICDE 2020, Section II-A):
//
//	G_IT(V, E, L_V, L_E)
//
// where V are indoor partitions, E are directed door transitions, vertex
// labels L_V carry (IDv, p-type, DM) and edge labels L_E carry
// (IDd, d-type, ATIs). The package also provides the time-dependent
// reduced graphs maintained by Graph_Update (Algorithm 3): one topology
// snapshot per checkpoint slot, each listing only the doors open during
// that slot.
package itgraph

import (
	"fmt"

	"indoorpath/internal/dmat"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// Graph is the IT-Graph over one venue: the venue topology, the
// distance matrices for its vertex labels, and the checkpoint set
// driving snapshot maintenance. Construction is O(|V| + |E| + DM cost);
// the graph is immutable and safe for concurrent readers.
type Graph struct {
	venue *model.Venue
	dm    *dmat.Set
	cps   temporal.CheckpointSet
	snaps *SnapshotSeries
}

// New builds the IT-Graph for a venue: computes every partition's
// distance matrix and collects the checkpoint set from door ATIs.
func New(v *model.Venue) (*Graph, error) {
	dm, err := dmat.Build(v)
	if err != nil {
		return nil, fmt.Errorf("itgraph: %w", err)
	}
	g := &Graph{venue: v, dm: dm, cps: v.Checkpoints()}
	g.snaps = newSnapshotSeries(g)
	return g, nil
}

// WithSchedules returns the graph of the venue with the listed doors'
// schedules replaced (model.Venue.WithSchedules; nil means always
// open). The new venue shares every door not updated and adjusts its
// counted checkpoint boundaries by the updated doors alone; the graph
// starts a fresh snapshot series but shares the distance matrices:
// they depend only on partitions, door positions and distance
// overrides, and a schedule change alters none of them (the shared
// set reads door positions from the receiver's venue, which are the
// same). The receiver is unchanged.
func (g *Graph) WithSchedules(updates map[model.DoorID]temporal.Schedule) (*Graph, error) {
	v, err := g.venue.WithSchedules(updates)
	if err != nil {
		return nil, err
	}
	out := &Graph{venue: v, dm: g.dm, cps: v.Checkpoints()}
	out.snaps = newSnapshotSeries(out)
	return out, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(v *model.Venue) *Graph {
	g, err := New(v)
	if err != nil {
		panic(err)
	}
	return g
}

// Venue returns the underlying indoor space model.
func (g *Graph) Venue() *model.Venue { return g.venue }

// DM returns the distance-matrix set (the DM components of L_V).
func (g *Graph) DM() *dmat.Set { return g.dm }

// Checkpoints returns the set T of topology change instants.
func (g *Graph) Checkpoints() temporal.CheckpointSet { return g.cps }

// Snapshots returns the per-slot topology snapshot series (the reduced
// graphs maintained by Graph_Update).
func (g *Graph) Snapshots() *SnapshotSeries { return g.snaps }

// VertexLabel is L_V(v): the paper's 3-tuple (IDv, p-type, DM).
type VertexLabel struct {
	ID   model.PartitionID
	Kind model.PartitionKind
	DM   *dmat.Matrix
}

// VertexLabel returns the label of partition p.
func (g *Graph) VertexLabel(p model.PartitionID) VertexLabel {
	return VertexLabel{ID: p, Kind: g.venue.Partition(p).Kind, DM: g.dm.Matrix(p)}
}

// EdgeLabel is L_E(d): the paper's 3-tuple (IDd, d-type, ATIs).
type EdgeLabel struct {
	ID   model.DoorID
	Kind model.DoorKind
	ATIs temporal.Schedule
}

// EdgeLabel returns the label of door d.
func (g *Graph) EdgeLabel(d model.DoorID) EdgeLabel {
	door := g.venue.Door(d)
	return EdgeLabel{ID: d, Kind: door.Kind, ATIs: door.ATIs}
}

// Edge is one directed edge (vi, vj, dk) of E.
type Edge struct {
	From, To model.PartitionID
	Door     model.DoorID
}

// Edges enumerates E, ordered by door then arc.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, d := range g.venue.Doors() {
		for _, a := range d.Arcs {
			out = append(out, Edge{From: a.From, To: a.To, Door: d.ID})
		}
	}
	return out
}

// Stats summarises the graph for logs and EXPERIMENTS.md.
type Stats struct {
	Vertices, EdgesDirected int
	Doors                   int
	Checkpoints             int
	Slots                   int
	DMBytes                 int
	MaxDoorsPerPartition    int
	TemporalDoors           int
}

// Stats computes graph statistics.
func (g *Graph) Stats() Stats {
	vs := g.venue.Stats()
	return Stats{
		Vertices:             vs.Partitions,
		EdgesDirected:        vs.ArcsTotal,
		Doors:                vs.Doors,
		Checkpoints:          g.cps.Len(),
		Slots:                g.cps.SlotCount(),
		DMBytes:              g.dm.MemoryBytes(),
		MaxDoorsPerPartition: g.dm.MaxDoorsPerPartition(),
		TemporalDoors:        vs.TemporalDoors,
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("IT-Graph: |V|=%d |E|=%d doors=%d (temporal=%d) |T|=%d slots=%d DM=%dB maxDeg=%d",
		s.Vertices, s.EdgesDirected, s.Doors, s.TemporalDoors, s.Checkpoints, s.Slots, s.DMBytes, s.MaxDoorsPerPartition)
}
