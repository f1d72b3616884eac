package core

import (
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// AccessChecker is the paper's TV_Check(dj, distj, t) hook of Algorithm
// 1 line 30: it decides whether door d can be passed by a user who
// leaves the source at time t and has walked dist metres upon reaching
// d. Implementations are stateful per query; Begin resets them.
type AccessChecker interface {
	// Name identifies the method in experiment output ("ITG/S", "ITG/A").
	Name() string
	// Begin prepares the checker for a query issued at time t with the
	// given walking speed (m/s).
	Begin(t temporal.TimeOfDay, speed float64)
	// Check reports whether door d is open on arrival after dist metres.
	Check(d model.DoorID, dist float64) bool
	// Stats returns counters accumulated since Begin.
	Stats() CheckerStats
}

// CheckerStats counts checker work for the experiment harness
// (JSON-tagged for the server wire, like SearchStats).
type CheckerStats struct {
	Checks         int `json:"checks"` // TV_Check invocations
	Passed         int `json:"passed"`
	ATIProbes      int `json:"ati_probes"`      // schedule binary searches (Syn)
	SnapshotProbes int `json:"snapshot_probes"` // O(1) bitset probes (Asyn)
	SlotSwitches   int `json:"slot_switches"`   // times the arrival crossed into another slot
	SnapshotBuilds int `json:"snapshot_builds"` // Graph_Update executions triggered by this query
	SnapshotBytes  int `json:"snapshot_bytes"`  // bytes of snapshots consulted by this query
	PrunedLists    int `json:"pruned_lists"`    // expansions served from reduced leave-door lists
}

// leavePruner is the optional fast path of the asynchronous method: an
// expansion whose entire arrival window [base, base+maxLeg] (in walked
// metres) stays inside one checkpoint slot can iterate the slot's
// reduced leave-door list directly — every listed door is open
// throughout the slot, so the per-door TV check is subsumed. This is
// the paper's "reduced versions of IT-Graph in the outward expansion".
type leavePruner interface {
	// PrunedLeaveDoors returns the open leaveable doors of partition w
	// for arrivals between base and base+maxLeg walked metres, with
	// ok=false when the window crosses a checkpoint (caller must fall
	// back to the full list plus per-door checks).
	PrunedLeaveDoors(w model.PartitionID, base, maxLeg float64) ([]model.DoorID, bool)
}

// SynChecker is the synchronous check of Algorithm 2: compute the
// arrival time and search the door's ATIs directly.
type SynChecker struct {
	venue *model.Venue
	t     temporal.TimeOfDay
	speed float64
	stats CheckerStats
}

// NewSynChecker builds the ITG/S checker for a graph.
func NewSynChecker(g *itgraph.Graph) *SynChecker {
	return &SynChecker{venue: g.Venue()}
}

// Name implements AccessChecker.
func (c *SynChecker) Name() string { return "ITG/S" }

// Begin implements AccessChecker.
func (c *SynChecker) Begin(t temporal.TimeOfDay, speed float64) {
	c.t = t
	c.speed = speed
	c.stats = CheckerStats{}
}

// Check implements AccessChecker: tarr ← t + dist/velocity; return
// tarr ∈ d.ATIs.
func (c *SynChecker) Check(d model.DoorID, dist float64) bool {
	_, ok := c.cross(d, dist, 0)
	return ok
}

// cross implements doorCrossing: Check at the walked distance
// base + leg, which is the label.
func (c *SynChecker) cross(d model.DoorID, base, leg float64) (float64, bool) {
	dist := base + leg
	c.stats.Checks++
	tarr := (c.t + temporal.TimeOfDay(dist/c.speed)).Mod()
	c.stats.ATIProbes++
	ok := c.venue.Door(d).ATIs.Contains(tarr)
	if ok {
		c.stats.Passed++
	}
	return dist, ok
}

// Stats implements AccessChecker.
func (c *SynChecker) Stats() CheckerStats { return c.stats }

// AsynChecker is the asynchronous check of Algorithm 4: instead of
// scanning ATIs per door, it consults the reduced IT-Graph snapshot
// (built by Graph_Update, Algorithm 3) for the checkpoint slot
// containing the arrival time. Snapshot membership is an O(1) bitset
// probe; snapshots are cached across checks and across queries, so
// Graph_Update runs at most once per slot per graph.
//
// Because slot boundaries are exactly the ATI boundaries, the probe is
// semantically identical to the synchronous check — ITG/A returns the
// same paths as ITG/S (verified by property test), only cheaper.
type AsynChecker struct {
	snaps *itgraph.SnapshotSeries
	t     temporal.TimeOfDay
	speed float64
	cur   *itgraph.Snapshot // current reduced graph G'_IT
	stats CheckerStats
}

// NewAsynChecker builds the ITG/A checker for a graph.
func NewAsynChecker(g *itgraph.Graph) *AsynChecker {
	return &AsynChecker{snaps: g.Snapshots()}
}

// Name implements AccessChecker.
func (c *AsynChecker) Name() string { return "ITG/A" }

// Begin implements AccessChecker: position the current snapshot at the
// query time.
func (c *AsynChecker) Begin(t temporal.TimeOfDay, speed float64) {
	c.t = t
	c.speed = speed
	c.stats = CheckerStats{}
	before := c.snaps.Builds()
	c.cur = c.snaps.At(t.Mod())
	c.stats.SnapshotBuilds += c.snaps.Builds() - before
	c.stats.SnapshotBytes = c.cur.MemoryBytes()
}

// Check implements AccessChecker.
func (c *AsynChecker) Check(d model.DoorID, dist float64) bool {
	_, ok := c.cross(d, dist, 0)
	return ok
}

// cross implements doorCrossing: Check at the walked distance
// base + leg, which is the label.
func (c *AsynChecker) cross(d model.DoorID, base, leg float64) (float64, bool) {
	dist := base + leg
	c.stats.Checks++
	tarr := (c.t + temporal.TimeOfDay(dist/c.speed)).Mod()
	// Asyn_Check line 4: if the arrival falls outside the current
	// snapshot's slot, run Graph_Update for the slot containing tarr.
	if tarr < c.cur.Start || tarr >= c.cur.End {
		c.stats.SlotSwitches++
		before := c.snaps.Builds()
		c.cur = c.snaps.At(tarr)
		c.stats.SnapshotBuilds += c.snaps.Builds() - before
		c.stats.SnapshotBytes += c.cur.MemoryBytes()
	}
	c.stats.SnapshotProbes++
	ok := c.cur.DoorOpen(d)
	if ok {
		c.stats.Passed++
	}
	return dist, ok
}

// Stats implements AccessChecker.
func (c *AsynChecker) Stats() CheckerStats { return c.stats }

// PrunedLeaveDoors implements leavePruner.
func (c *AsynChecker) PrunedLeaveDoors(w model.PartitionID, base, maxLeg float64) ([]model.DoorID, bool) {
	lo := c.t + temporal.TimeOfDay(base/c.speed)
	hi := c.t + temporal.TimeOfDay((base+maxLeg)/c.speed)
	if hi >= temporal.DaySeconds {
		return nil, false // window wraps midnight: fall back
	}
	if lo < c.cur.Start || lo >= c.cur.End {
		c.stats.SlotSwitches++
		before := c.snaps.Builds()
		c.cur = c.snaps.At(lo)
		c.stats.SnapshotBuilds += c.snaps.Builds() - before
		c.stats.SnapshotBytes += c.cur.MemoryBytes()
	}
	if hi >= c.cur.End {
		return nil, false // window crosses the next checkpoint
	}
	c.stats.PrunedLists++
	return c.cur.LeaveDoors(w), true
}

// alwaysOpenChecker ignores temporal variation — the temporal-unaware
// static baseline (classic ISPQ over the accessibility graph).
type alwaysOpenChecker struct{ checks int }

func (c *alwaysOpenChecker) Name() string                          { return "Static" }
func (c *alwaysOpenChecker) Begin(_ temporal.TimeOfDay, _ float64) { c.checks = 0 }
func (c *alwaysOpenChecker) Check(_ model.DoorID, _ float64) bool  { c.checks++; return true }
func (c *alwaysOpenChecker) cross(_ model.DoorID, base, leg float64) (float64, bool) {
	c.checks++
	return base + leg, true
}
func (c *alwaysOpenChecker) Stats() CheckerStats {
	return CheckerStats{Checks: c.checks, Passed: c.checks}
}
