package dmat

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// buildTestVenue: one hall with three doors, one stairwell.
func buildTestVenue(t testing.TB) (*model.Venue, []model.DoorID, model.PartitionID) {
	t.Helper()
	b := model.NewBuilder("dm-test")
	hall := b.AddPartition("hall", model.HallwayPartition, geom.NewRect(0, 0, 12, 9, 0))
	east := b.AddPartition("east", model.PublicPartition, geom.NewRect(12, 0, 20, 9, 0))
	north := b.AddPartition("north", model.PublicPartition, geom.NewRect(0, 9, 12, 18, 0))
	hall1 := b.AddPartition("hall1", model.HallwayPartition, geom.NewRect(0, 0, 12, 9, 1))
	sw := b.AddStairwell("sw", geom.NewRect(12, 9, 15, 12, 0))

	d1 := b.AddDoor("d1", model.PublicDoor, geom.Pt(12, 3, 0), nil)
	d2 := b.AddDoor("d2", model.PublicDoor, geom.Pt(4, 9, 0), nil)
	d3 := b.AddDoor("d3", model.PublicDoor, geom.Pt(0, 0, 0), nil)
	sLo := b.AddDoor("s-lo", model.StairDoor, geom.Pt(12, 9, 0), nil)
	sHi := b.AddDoor("s-hi", model.StairDoor, geom.Pt(12, 9, 1), nil)

	b.ConnectBi(d1, hall, east)
	b.ConnectBi(d2, hall, north)
	b.ConnectBi(d3, hall, b.Outdoors())
	b.ConnectBi(sLo, hall, sw)
	b.ConnectBi(sHi, sw, hall1)
	b.SetDistance(sw, sLo, sHi, 20)

	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return v, []model.DoorID{d1, d2, d3, sLo, sHi}, hall
}

func TestBuildEuclidean(t *testing.T) {
	v, ds, hall := buildTestVenue(t)
	s, err := Build(v)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2, d3 := ds[0], ds[1], ds[2]
	want12 := math.Hypot(12-4, 3-9)
	if got := s.Dist(hall, d1, d2); math.Abs(got-want12) > 1e-9 {
		t.Errorf("Dist(d1,d2) = %v, want %v", got, want12)
	}
	if got := s.Dist(hall, d2, d1); math.Abs(got-want12) > 1e-9 {
		t.Error("DM must be symmetric")
	}
	if got := s.Dist(hall, d1, d1); got != 0 {
		t.Errorf("diagonal = %v", got)
	}
	want13 := math.Hypot(12, 3)
	if got := s.Dist(hall, d1, d3); math.Abs(got-want13) > 1e-9 {
		t.Errorf("Dist(d1,d3) = %v, want %v", got, want13)
	}
}

func TestStairwellOverride(t *testing.T) {
	v, ds, _ := buildTestVenue(t)
	s, err := Build(v)
	if err != nil {
		t.Fatal(err)
	}
	var swID model.PartitionID = -1
	for _, p := range v.Partitions() {
		if p.Kind == model.StairwellPartition {
			swID = p.ID
		}
	}
	if got := s.Dist(swID, ds[3], ds[4]); got != 20 {
		t.Errorf("stairway = %v, want override 20", got)
	}
}

func TestStairwellFallback(t *testing.T) {
	b := model.NewBuilder("sw-fallback")
	h0 := b.AddPartition("h0", model.HallwayPartition, geom.NewRect(0, 0, 5, 5, 0))
	h1 := b.AddPartition("h1", model.HallwayPartition, geom.NewRect(0, 0, 5, 5, 1))
	sw := b.AddStairwell("sw", geom.NewRect(5, 0, 8, 3, 0))
	lo := b.AddDoor("lo", model.StairDoor, geom.Pt(5, 1, 0), nil)
	hi := b.AddDoor("hi", model.StairDoor, geom.Pt(5, 2, 1), nil)
	b.ConnectBi(lo, h0, sw)
	b.ConnectBi(hi, sw, h1)
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(v)
	if err != nil {
		t.Fatal(err)
	}
	// No override: planar distance (1) + one flight (20).
	if got := s.Dist(sw, lo, hi); math.Abs(got-21) > 1e-9 {
		t.Errorf("fallback stair distance = %v, want 21", got)
	}
}

func TestCrossFloorNonStairwellFails(t *testing.T) {
	b := model.NewBuilder("bad-floors")
	p := b.AddPartition("p", model.PublicPartition, geom.NewRect(0, 0, 5, 5, 0))
	q := b.AddPartition("q", model.PublicPartition, geom.NewRect(5, 0, 10, 5, 0))
	d1 := b.AddDoor("a", model.PublicDoor, geom.Pt(5, 1, 0), nil)
	d2 := b.AddDoor("b", model.PublicDoor, geom.Pt(5, 2, 1), nil) // wrong floor
	b.ConnectBi(d1, p, q)
	b.ConnectBi(d2, p, q)
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(v); err == nil {
		t.Error("expected cross-floor error for non-stairwell partition")
	}
}

func TestDistUnknownDoor(t *testing.T) {
	v, ds, hall := buildTestVenue(t)
	s, err := Build(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Dist(hall, ds[0], ds[4]); !math.IsInf(got, 1) {
		t.Errorf("unattached door pair should be +Inf, got %v", got)
	}
	m := s.Matrix(hall)
	if m.Size() != 4 {
		t.Errorf("hall matrix size = %d, want 4", m.Size())
	}
	if _, ok := m.Dist(ds[4], ds[0]); ok {
		t.Error("Dist with unattached door must report !ok")
	}
	if m.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}

func TestPointHelpers(t *testing.T) {
	v, ds, hall := buildTestVenue(t)
	s, err := Build(v)
	if err != nil {
		t.Fatal(err)
	}
	pt := geom.Pt(6, 3, 0)
	if got := s.PointToDoor(hall, pt, ds[0]); math.Abs(got-6) > 1e-9 {
		t.Errorf("PointToDoor = %v, want 6", got)
	}
	if got := s.PointToDoor(hall, geom.Pt(6, 3, 1), ds[0]); !math.IsInf(got, 1) {
		t.Errorf("cross-floor PointToDoor = %v", got)
	}
	if got := s.PointToDoor(hall, pt, ds[4]); !math.IsInf(got, 1) {
		t.Errorf("unattached PointToDoor = %v", got)
	}
	if got := s.PointToPoint(hall, pt, geom.Pt(6, 8, 0)); math.Abs(got-5) > 1e-9 {
		t.Errorf("PointToPoint = %v, want 5", got)
	}
	if got := s.PointToPoint(hall, pt, geom.Pt(6, 8, 1)); !math.IsInf(got, 1) {
		t.Errorf("cross-floor PointToPoint = %v", got)
	}
}

func TestOverrideBeatsGeometry(t *testing.T) {
	b := model.NewBuilder("ov")
	p := b.AddPartition("p", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	q := b.AddPartition("q", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	r := b.AddPartition("r", model.PublicPartition, geom.NewRect(0, 10, 10, 20, 0))
	d1 := b.AddDoor("d1", model.PublicDoor, geom.Pt(10, 5, 0), temporal.AlwaysOpen())
	d2 := b.AddDoor("d2", model.PublicDoor, geom.Pt(5, 10, 0), nil)
	b.ConnectBi(d1, p, q)
	b.ConnectBi(d2, p, r)
	b.SetDistance(p, d1, d2, 99) // door detour longer than straight line
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Dist(p, d1, d2); got != 99 {
		t.Errorf("override ignored: %v", got)
	}
}

func TestMetricProperties(t *testing.T) {
	// Random door layouts in one rectangle: DM must be a metric
	// (symmetry, identity, triangle inequality) when purely Euclidean.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		b := model.NewBuilder("metric")
		room := b.AddPartition("room", model.PublicPartition, geom.NewRect(0, 0, 50, 40, 0))
		nd := 3 + rng.Intn(5)
		neighbors := make([]model.PartitionID, nd)
		doors := make([]model.DoorID, nd)
		for i := 0; i < nd; i++ {
			neighbors[i] = b.AddPartition("", model.PublicPartition,
				geom.NewRect(60+float64(i)*10, 0, 70+float64(i)*10, 10, 0))
			doors[i] = b.AddDoor("", model.PublicDoor,
				geom.Pt(rng.Float64()*50, rng.Float64()*40, 0), nil)
			b.ConnectBi(doors[i], room, neighbors[i])
		}
		v, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nd; i++ {
			if d := s.Dist(room, doors[i], doors[i]); d != 0 {
				t.Fatalf("identity violated: %v", d)
			}
			for j := 0; j < nd; j++ {
				dij := s.Dist(room, doors[i], doors[j])
				if dji := s.Dist(room, doors[j], doors[i]); dij != dji {
					t.Fatalf("symmetry violated: %v vs %v", dij, dji)
				}
				for k := 0; k < nd; k++ {
					if dik, dkj := s.Dist(room, doors[i], doors[k]), s.Dist(room, doors[k], doors[j]); dij > dik+dkj+1e-9 {
						t.Fatalf("triangle violated: %v > %v + %v", dij, dik, dkj)
					}
				}
			}
		}
	}
}

func TestVisibilityDistanceConvex(t *testing.T) {
	pg := geom.RectPolygon(geom.NewRect(0, 0, 10, 10, 0))
	d, err := VisibilityDistance(pg, geom.Pt(1, 1, 0), geom.Pt(9, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := math.Hypot(8, 8)
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("convex visibility = %v, want %v", d, want)
	}
}

func TestVisibilityDistanceLShape(t *testing.T) {
	pg, err := geom.NewPolygon(
		geom.Pt(0, 0, 0), geom.Pt(10, 0, 0), geom.Pt(10, 5, 0),
		geom.Pt(5, 5, 0), geom.Pt(5, 10, 0), geom.Pt(0, 10, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	a, bp := geom.Pt(9, 4, 0), geom.Pt(4, 9, 0)
	d, err := VisibilityDistance(pg, a, bp)
	if err != nil {
		t.Fatal(err)
	}
	// Shortest path bends at the reflex corner (5,5).
	want := a.DistXY(geom.Pt(5, 5, 0)) + geom.Pt(5, 5, 0).DistXY(bp)
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("L-shape visibility = %v, want %v", d, want)
	}
	// Must exceed the (blocked) straight line.
	if d <= a.DistXY(bp) {
		t.Error("bent path cannot be shorter than the chord")
	}
}

func TestVisibilityDistanceErrors(t *testing.T) {
	pg := geom.RectPolygon(geom.NewRect(0, 0, 10, 10, 0))
	if _, err := VisibilityDistance(pg, geom.Pt(-5, 0, 0), geom.Pt(5, 5, 0)); err == nil {
		t.Error("outside endpoint must fail")
	}
}

func TestSetStats(t *testing.T) {
	v, _, _ := buildTestVenue(t)
	s, err := Build(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MaxDoorsPerPartition(); got != 4 {
		t.Errorf("MaxDoorsPerPartition = %d", got)
	}
	if s.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}

// TestBound: c is the smallest stair entry per floor, α keeps every
// entry at or above the bound, and the margin keeps α below its exact
// value.
func TestBound(t *testing.T) {
	v, ds, _ := buildTestVenue(t)
	s, err := Build(v)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Bound()
	if b.floorCost != 20 || b.alpha != 1-boundMargin {
		t.Fatalf("bound = %+v, want c = 20 and α = 1 - %g", b, boundMargin)
	}
	for p := range v.PartitionCount() {
		doors := s.Matrix(model.PartitionID(p)).Doors()
		for _, a := range doors {
			for _, c := range doors {
				pa, pc := v.Door(a).Pos, v.Door(c).Pos
				if d := s.Dist(model.PartitionID(p), a, c); d < b.Dist(pa, pc) {
					t.Errorf("entry %v < bound %v", d, b.Dist(pa, pc))
				}
			}
		}
	}
	if got, want := b.Dist(v.Door(ds[0]).Pos, geom.Pt(12, 9, 1)), (6+20)*(1-boundMargin); got != want {
		t.Errorf("Dist across a floor = %v, want %v", got, want)
	}

	// A 15 m stairway whose doors lie 5 m apart in plan leaves c = 15
	// and, with 15 < 5 + 15, shrinks α to 15/20. A 0 m one between doors
	// above each other leaves c = 0 and the planar bound.
	for _, tc := range []struct{ stairY, stair, c, alpha float64 }{{5, 15, 15, 0.75}, {0, 0, 0, 1}} {
		bld := model.NewBuilder("stairs")
		h0 := bld.AddPartition("h0", model.HallwayPartition, geom.NewRect(0, 0, 10, 10, 0))
		h1 := bld.AddPartition("h1", model.HallwayPartition, geom.NewRect(0, 0, 10, 10, 1))
		sw := bld.AddStairwell("sw", geom.NewRect(10, 0, 15, 5, 0))
		lo := bld.AddDoor("lo", model.StairDoor, geom.Pt(10, 0, 0), nil)
		hi := bld.AddDoor("hi", model.StairDoor, geom.Pt(10, tc.stairY, 1), nil)
		bld.ConnectBi(lo, h0, sw)
		bld.ConnectBi(hi, sw, h1)
		bld.SetDistance(sw, lo, hi, tc.stair)
		if s, err = Build(bld.MustBuild()); err != nil {
			t.Fatal(err)
		}
		if b := s.Bound(); b.floorCost != tc.c || b.alpha != tc.alpha*(1-boundMargin) {
			t.Errorf("%v m stairway: bound = %+v, want c = %v and α = %v - margin", tc.stair, b, tc.c, tc.alpha)
		}
	}
}

// TestDoorTable pins the door table on a venue with private rooms and a
// one-way door: each door has a slot in exactly the partitions it is
// attached to, at its row in that partition's matrix, with the privacy
// bits its arcs give, and Set.Dist reads the matrix entry Matrix.Dist
// finds by its door list.
func TestDoorTable(t *testing.T) {
	b := model.NewBuilder("door-table")
	hall := b.AddPartition("hall", model.HallwayPartition, geom.NewRect(0, 0, 10, 10, 0))
	office := b.AddPartition("office", model.PrivatePartition, geom.NewRect(10, 0, 20, 10, 0))
	shop := b.AddPartition("shop", model.PublicPartition, geom.NewRect(0, 10, 10, 20, 0))
	closet := b.AddPartition("closet", model.PrivatePartition, geom.NewRect(20, 0, 25, 10, 0))
	ho := b.AddDoor("h-o", model.PrivateDoor, geom.Pt(10, 5, 0), nil)
	hs := b.AddDoor("h-s", model.PublicDoor, geom.Pt(5, 10, 0), nil)
	oc := b.AddDoor("o-c", model.PrivateDoor, geom.Pt(20, 5, 0), nil)
	hs2 := b.AddDoor("h-s2", model.PublicDoor, geom.Pt(8, 10, 0), nil)
	b.ConnectBi(ho, hall, office)
	b.ConnectOneWay(hs, hall, shop)
	b.ConnectBi(oc, office, closet)
	b.ConnectBi(hs2, hall, shop)
	v := b.MustBuild()
	s, err := Build(v)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int32]Slot{
		{int32(ho), int32(hall)}:   {Part: hall},
		{int32(ho), int32(office)}: {Part: office, Out: true, In: true},
		{int32(hs), int32(hall)}:   {Part: hall, Out: true},
		{int32(hs), int32(shop)}:   {Part: shop, In: true},
		{int32(oc), int32(office)}: {Part: office},
		{int32(oc), int32(closet)}: {Part: closet},
		{int32(hs2), int32(hall)}:  {Part: hall, Out: true, In: true},
		{int32(hs2), int32(shop)}:  {Part: shop, Out: true, In: true},
	}
	for d := range v.DoorCount() {
		for p := range v.PartitionCount() {
			did, pid := model.DoorID(d), model.PartitionID(p)
			got, ok := s.Slot(did, pid)
			w, attached := want[[2]int32{int32(d), int32(p)}]
			if ok != attached {
				t.Fatalf("door %d, partition %d: slot found %v, want %v", d, p, ok, attached)
			}
			if !ok {
				continue
			}
			doors := s.Matrix(pid).Doors()
			if w.Row = int32(slices.Index(doors, did)); got != w {
				t.Errorf("door %d, partition %d: slot %+v, want %+v", d, p, got, w)
			}
		}
	}
	for p := range v.PartitionCount() {
		pid := model.PartitionID(p)
		m := s.Matrix(pid)
		if !slices.IsSorted(m.Doors()) {
			t.Fatalf("partition %d: doors %v do not ascend", p, m.Doors())
		}
		for _, a := range m.Doors() {
			for _, c := range m.Doors() {
				if d, ok := m.Dist(a, c); !ok || d != s.Dist(pid, a, c) {
					t.Errorf("partition %d, doors %d and %d: Matrix.Dist %v, %v; Set.Dist %v", p, a, c, d, ok, s.Dist(pid, a, c))
				}
			}
		}
	}
	if _, ok := s.Slot(model.NoDoor, hall); ok {
		t.Error("NoDoor has a slot")
	}
}
