package itgraph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// sched is shorthand for a one-interval schedule.
func sched(open, close string) temporal.Schedule {
	return temporal.MustSchedule(temporal.MustInterval(
		temporal.MustParse(open), temporal.MustParse(close)))
}

// smallVenue: hall - d1(8-16) - shop, hall - d2(always) - cafe,
// hall - d3(one-way, 6-22) -> store(private), entrance e to outdoors.
func smallVenue(t testing.TB) *model.Venue {
	t.Helper()
	b := model.NewBuilder("small")
	hall := b.AddPartition("hall", model.HallwayPartition, geom.NewRect(0, 0, 20, 10, 0))
	shop := b.AddPartition("shop", model.PublicPartition, geom.NewRect(0, 10, 10, 20, 0))
	cafe := b.AddPartition("cafe", model.PublicPartition, geom.NewRect(10, 10, 20, 20, 0))
	store := b.AddPartition("store", model.PrivatePartition, geom.NewRect(20, 0, 30, 10, 0))
	out := b.Outdoors()

	d1 := b.AddDoor("d1", model.PublicDoor, geom.Pt(5, 10, 0), sched("8:00", "16:00"))
	d2 := b.AddDoor("d2", model.PublicDoor, geom.Pt(15, 10, 0), nil)
	d3 := b.AddDoor("d3", model.PrivateDoor, geom.Pt(20, 5, 0), sched("6:00", "22:00"))
	e := b.AddDoor("e", model.EntranceDoor, geom.Pt(0, 5, 0), sched("5:00", "23:00"))

	b.ConnectBi(d1, hall, shop)
	b.ConnectBi(d2, hall, cafe)
	b.ConnectOneWay(d3, hall, store)
	b.ConnectBi(e, hall, out)
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestGraphConstruction(t *testing.T) {
	g := MustNew(smallVenue(t))
	st := g.Stats()
	if st.Vertices != 5 || st.Doors != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.EdgesDirected != 7 { // 3 bi-doors (6 arcs) + 1 one-way
		t.Errorf("edges = %d, want 7", st.EdgesDirected)
	}
	// Checkpoints: 8:00, 16:00, 6:00, 22:00, 5:00, 23:00 -> 6 distinct.
	if st.Checkpoints != 6 {
		t.Errorf("checkpoints = %d, want 6 (%v)", st.Checkpoints, g.Checkpoints().Times())
	}
	if st.Slots != 7 {
		t.Errorf("slots = %d, want 7", st.Slots)
	}
	if st.TemporalDoors != 3 {
		t.Errorf("temporal doors = %d", st.TemporalDoors)
	}
	if !strings.Contains(st.String(), "|V|=5") {
		t.Errorf("Stats.String = %q", st.String())
	}
	if len(g.Edges()) != 7 {
		t.Errorf("Edges() = %d", len(g.Edges()))
	}
}

// TestWithSchedulesSharesMatrices checks the schedule-swap path: the
// swapped graph carries the new schedules and checkpoints, a fresh
// snapshot series, and distance matrices shared with the original yet
// equal, matrix for matrix, to those of a fresh New over the same venue.
func TestWithSchedulesSharesMatrices(t *testing.T) {
	g := MustNew(smallVenue(t))
	g.Snapshots().BuildAll()
	d1, _ := g.Venue().DoorByName("d1")
	d2, _ := g.Venue().DoorByName("d2")
	g2, err := g.WithSchedules(map[model.DoorID]temporal.Schedule{d1: {}, d2: sched("9:00", "17:00")})
	if err != nil {
		t.Fatal(err)
	}
	fresh := MustNew(g2.Venue())
	if g2.DM() != g.DM() {
		t.Error("distance matrices rebuilt, want shared")
	}
	for p := 0; p < g2.Venue().PartitionCount(); p++ {
		pid := model.PartitionID(p)
		if !reflect.DeepEqual(g2.DM().Matrix(pid), fresh.DM().Matrix(pid)) {
			t.Errorf("partition %d: shared matrix differs from a fresh build", p)
		}
	}
	if !reflect.DeepEqual(g2.Checkpoints().Times(), fresh.Checkpoints().Times()) {
		t.Errorf("checkpoints = %v, want %v", g2.Checkpoints().Times(), fresh.Checkpoints().Times())
	}
	if g2.Snapshots().Builds() != 0 {
		t.Errorf("swapped graph starts with %d snapshot builds, want 0", g2.Snapshots().Builds())
	}
	if g2.Venue().Door(d1).OpenAt(temporal.MustParse("12:00")) || !g.Venue().Door(d1).OpenAt(temporal.MustParse("12:00")) {
		t.Error("d1 schedule: want closed in the swapped graph only")
	}
	if _, err := g.WithSchedules(map[model.DoorID]temporal.Schedule{99: nil}); err == nil {
		t.Error("unknown door accepted")
	}
}

func TestLabels(t *testing.T) {
	v := smallVenue(t)
	g := MustNew(v)
	var hall, store model.PartitionID
	var d1 model.DoorID
	for _, p := range v.Partitions() {
		switch p.Name {
		case "hall":
			hall = p.ID
		case "store":
			store = p.ID
		}
	}
	for _, d := range v.Doors() {
		if d.Name == "d1" {
			d1 = d.ID
		}
	}
	vl := g.VertexLabel(hall)
	if vl.Kind != model.HallwayPartition || vl.DM.Size() != 4 {
		t.Errorf("hall label = kind %v, DM size %d", vl.Kind, vl.DM.Size())
	}
	if g.VertexLabel(store).Kind != model.PrivatePartition {
		t.Error("store label kind")
	}
	el := g.EdgeLabel(d1)
	if el.Kind != model.PublicDoor || len(el.ATIs) != 1 {
		t.Errorf("d1 label = %+v", el)
	}
	if el.ATIs[0].Open != temporal.Clock(8, 0, 0) {
		t.Errorf("d1 ATI = %v", el.ATIs)
	}
}

func TestSnapshotCorrectness(t *testing.T) {
	v := smallVenue(t)
	g := MustNew(v)
	// Every (door, random time) pair: snapshot membership must agree
	// exactly with the schedule.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3000; trial++ {
		at := temporal.TimeOfDay(rng.Float64() * 86400)
		snap := g.Snapshots().At(at)
		if !(snap.Start <= at && at < snap.End) {
			t.Fatalf("snapshot slot [%v,%v) does not contain %v", snap.Start, snap.End, at)
		}
		for _, d := range v.Doors() {
			want := d.ATIs.Contains(at)
			if got := snap.DoorOpen(d.ID); got != want {
				t.Fatalf("door %s at %v: snapshot=%v schedule=%v", d.Name, at, got, want)
			}
		}
	}
}

func TestSnapshotPrunedLeaveDoors(t *testing.T) {
	v := smallVenue(t)
	g := MustNew(v)
	var hall model.PartitionID
	for _, p := range v.Partitions() {
		if p.Name == "hall" {
			hall = p.ID
		}
	}
	// At 12:00 all four doors open; hall can leave through all 4.
	noon := g.Snapshots().At(temporal.Clock(12, 0, 0))
	if got := len(noon.LeaveDoors(hall)); got != 4 {
		t.Errorf("noon leave doors = %d, want 4", got)
	}
	// At 4:00 only d2 (always open) is open.
	night := g.Snapshots().At(temporal.Clock(4, 0, 0))
	if got := len(night.LeaveDoors(hall)); got != 1 {
		t.Errorf("4:00 leave doors = %d, want 1", got)
	}
	if night.OpenCount != 1 {
		t.Errorf("4:00 open count = %d", night.OpenCount)
	}
	if noon.MemoryBytes() <= night.MemoryBytes() {
		// Pruned lists shrink with closures; noon has strictly more doors.
		t.Errorf("memory: noon %d <= night %d", noon.MemoryBytes(), night.MemoryBytes())
	}
}

func TestSnapshotLazinessAndReuse(t *testing.T) {
	g := MustNew(smallVenue(t))
	ss := g.Snapshots()
	if ss.Builds() != 0 {
		t.Fatalf("builds before use = %d", ss.Builds())
	}
	ss.At(temporal.Clock(12, 0, 0))
	ss.At(temporal.Clock(12, 30, 0)) // same slot: no new build
	if ss.Builds() != 1 {
		t.Errorf("builds after same-slot reuse = %d, want 1", ss.Builds())
	}
	ss.At(temporal.Clock(4, 0, 0))
	if ss.Builds() != 2 {
		t.Errorf("builds = %d, want 2", ss.Builds())
	}
	ss.BuildAll()
	if ss.Builds() != ss.SlotCount() {
		t.Errorf("BuildAll: builds=%d slots=%d", ss.Builds(), ss.SlotCount())
	}
	if ss.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive after builds")
	}
}

func TestSnapshotSlotClamping(t *testing.T) {
	g := MustNew(smallVenue(t))
	lo := g.Snapshots().Slot(-5)
	if lo.Slot != 0 {
		t.Errorf("clamped low slot = %d", lo.Slot)
	}
	hi := g.Snapshots().Slot(999)
	if hi.Slot != g.Snapshots().SlotCount()-1 {
		t.Errorf("clamped high slot = %d", hi.Slot)
	}
}

func TestDoorSet(t *testing.T) {
	s := NewDoorSet(130)
	for _, d := range []model.DoorID{0, 1, 63, 64, 127, 129} {
		if s.Contains(d) {
			t.Errorf("fresh set contains %d", d)
		}
		s.Add(d)
		if !s.Contains(d) {
			t.Errorf("added %d not contained", d)
		}
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("removed 64 still present")
	}
	if !s.Contains(63) || !s.Contains(127) {
		t.Error("neighbours of removed bit lost")
	}
	if s.MemoryBytes() != 3*8 {
		t.Errorf("MemoryBytes = %d", s.MemoryBytes())
	}
}

func TestSerialisationRoundTrip(t *testing.T) {
	v := smallVenue(t)
	var buf bytes.Buffer
	if err := Save(&buf, v); err != nil {
		t.Fatal(err)
	}
	v2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v2.PartitionCount() != v.PartitionCount() || v2.DoorCount() != v.DoorCount() {
		t.Fatalf("round trip counts: %d/%d vs %d/%d",
			v2.PartitionCount(), v2.DoorCount(), v.PartitionCount(), v.DoorCount())
	}
	s1, s2 := v.Stats(), v2.Stats()
	if s1 != s2 {
		t.Errorf("stats changed:\n before %+v\n after  %+v", s1, s2)
	}
	// Schedules preserved exactly.
	for i := range v.Doors() {
		d1, d2 := v.Doors()[i], v2.Doors()[i]
		if d1.Name != d2.Name || d1.ATIs.String() != d2.ATIs.String() {
			t.Errorf("door %s schedule changed: %v vs %v", d1.Name, d1.ATIs, d2.ATIs)
		}
		if len(d1.Arcs) != len(d2.Arcs) {
			t.Errorf("door %s arcs changed", d1.Name)
		}
	}
	// Graphs built from both venues agree on snapshots.
	g1, g2 := MustNew(v), MustNew(v2)
	if g1.Checkpoints().Len() != g2.Checkpoints().Len() {
		t.Error("checkpoints changed")
	}
	for slot := 0; slot < g1.Snapshots().SlotCount(); slot++ {
		a, b := g1.Snapshots().Slot(slot), g2.Snapshots().Slot(slot)
		if a.OpenCount != b.OpenCount {
			t.Errorf("slot %d open count %d vs %d", slot, a.OpenCount, b.OpenCount)
		}
	}
}

func TestSerialisationWithOverrides(t *testing.T) {
	b := model.NewBuilder("ov")
	h0 := b.AddPartition("h0", model.HallwayPartition, geom.NewRect(0, 0, 5, 5, 0))
	h1 := b.AddPartition("h1", model.HallwayPartition, geom.NewRect(0, 0, 5, 5, 1))
	sw := b.AddStairwell("sw", geom.NewRect(5, 0, 8, 3, 0))
	lo := b.AddDoor("lo", model.StairDoor, geom.Pt(5, 1, 0), nil)
	hi := b.AddDoor("hi", model.StairDoor, geom.Pt(5, 1, 1), nil)
	b.ConnectBi(lo, h0, sw)
	b.ConnectBi(hi, sw, h1)
	b.SetDistance(sw, lo, hi, 20)
	v := b.MustBuild()

	var buf bytes.Buffer
	if err := Save(&buf, v); err != nil {
		t.Fatal(err)
	}
	v2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	swID, ok := model.PartitionID(0), false
	for _, p := range v2.Partitions() {
		if p.Kind == model.StairwellPartition {
			swID, ok = p.ID, true
			if p.TopFloor != 1 {
				t.Error("stairwell TopFloor lost")
			}
		}
	}
	if !ok {
		t.Fatal("stairwell lost")
	}
	doors := v2.DoorsOf(swID)
	if len(doors) != 2 {
		t.Fatalf("stairwell doors = %d", len(doors))
	}
	if d, ok := v2.DistOverride(swID, doors[0], doors[1]); !ok || d != 20 {
		t.Errorf("override lost: %v %v", d, ok)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`{bad json`,
		`{"name":"x","partitions":[{"name":"p","kind":"NOPE","rect":[0,0,1,1],"floor":0}],"doors":[]}`,
		`{"name":"x","partitions":[{"name":"p","kind":"PBP","rect":[0,0,1,1],"floor":0}],
		  "doors":[{"name":"d","kind":"NOPE","x":0,"y":0,"floor":0,"arcs":[["p","p"]]}]}`,
		`{"name":"x","partitions":[{"name":"p","kind":"PBP","rect":[0,0,1,1],"floor":0}],
		  "doors":[{"name":"d","kind":"PBD","x":0,"y":0,"floor":0,"atis":["25:00-26:00"],"arcs":[]}]}`,
		`{"name":"x","partitions":[{"name":"p","kind":"PBP","rect":[0,0,1,1],"floor":0}],
		  "doors":[{"name":"d","kind":"PBD","x":0,"y":0,"floor":0,"arcs":[["p","ghost"]]}]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected load error", i)
		}
	}
}
