package core

import (
	"errors"
	"math"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

func sched(open, close string) temporal.Schedule {
	return temporal.MustSchedule(temporal.MustInterval(
		temporal.MustParse(open), temporal.MustParse(close)))
}

// corridorVenue builds a 1x4 corridor of rooms:
//
//	A(0..10) -d1- B(10..20) -d2- C(20..30) -d3- D(30..40)
//	plus a detour row: A -d4- X(0..20, y10..20) -d5- C (joining at C)
//
// d2 has restricted hours so the detour matters.
func corridorVenue(t testing.TB) (*itgraph.Graph, map[string]model.PartitionID, map[string]model.DoorID) {
	t.Helper()
	b := model.NewBuilder("corridor")
	A := b.AddPartition("A", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	B := b.AddPartition("B", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	C := b.AddPartition("C", model.PublicPartition, geom.NewRect(20, 0, 30, 10, 0))
	D := b.AddPartition("D", model.PublicPartition, geom.NewRect(30, 0, 40, 10, 0))
	X := b.AddPartition("X", model.PublicPartition, geom.NewRect(0, 10, 30, 20, 0))

	d1 := b.AddDoor("d1", model.PublicDoor, geom.Pt(10, 5, 0), nil)
	d2 := b.AddDoor("d2", model.PublicDoor, geom.Pt(20, 5, 0), sched("8:00", "16:00"))
	d3 := b.AddDoor("d3", model.PublicDoor, geom.Pt(30, 5, 0), nil)
	d4 := b.AddDoor("d4", model.PublicDoor, geom.Pt(5, 10, 0), nil)
	d5 := b.AddDoor("d5", model.PublicDoor, geom.Pt(25, 10, 0), nil)

	b.ConnectBi(d1, A, B)
	b.ConnectBi(d2, B, C)
	b.ConnectBi(d3, C, D)
	b.ConnectBi(d4, A, X)
	b.ConnectBi(d5, X, C)

	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return itgraph.MustNew(v),
		map[string]model.PartitionID{"A": A, "B": B, "C": C, "D": D, "X": X},
		map[string]model.DoorID{"d1": d1, "d2": d2, "d3": d3, "d4": d4, "d5": d5}
}

func routeBoth(t *testing.T, g *itgraph.Graph, q Query) (*Path, *Path) {
	t.Helper()
	syn := NewEngine(g, Options{Method: MethodSyn})
	asy := NewEngine(g, Options{Method: MethodAsyn})
	ps, _, errS := syn.Route(q)
	pa, _, errA := asy.Route(q)
	if (errS == nil) != (errA == nil) {
		t.Fatalf("ITG/S err=%v but ITG/A err=%v", errS, errA)
	}
	if errS != nil {
		if !errors.Is(errS, ErrNoRoute) {
			t.Fatalf("unexpected error: %v", errS)
		}
		return nil, nil
	}
	if math.Abs(ps.Length-pa.Length) > 1e-9 {
		t.Fatalf("length mismatch: ITG/S %v vs ITG/A %v", ps.Length, pa.Length)
	}
	return ps, pa
}

func TestDirectSamePartition(t *testing.T) {
	g, _, _ := corridorVenue(t)
	q := Query{Source: geom.Pt(1, 1, 0), Target: geom.Pt(4, 5, 0), At: temporal.Clock(12, 0, 0)}
	p, _ := routeBoth(t, g, q)
	if p == nil {
		t.Fatal("no route")
	}
	if p.Hops() != 0 {
		t.Errorf("hops = %d, want direct", p.Hops())
	}
	if want := 5.0; math.Abs(p.Length-want) > 1e-9 {
		t.Errorf("length = %v, want %v", p.Length, want)
	}
	if err := p.Validate(g, q); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestShortestThroughOpenDoors(t *testing.T) {
	g, _, ds := corridorVenue(t)
	// At noon d2 is open: straight line A→B→C→D along y=5.
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(12, 0, 0)}
	p, _ := routeBoth(t, g, q)
	if p == nil {
		t.Fatal("no route")
	}
	if want := 36.0; math.Abs(p.Length-want) > 1e-9 {
		t.Errorf("length = %v, want %v", p.Length, want)
	}
	if p.Hops() != 3 {
		t.Errorf("hops = %d, want 3", p.Hops())
	}
	if p.Doors[1] != ds["d2"] {
		t.Errorf("expected middle door d2, got %v", p.Doors)
	}
	if err := p.Validate(g, q); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Arrivals are increasing and consistent.
	for i := 1; i < len(p.Arrivals); i++ {
		if p.Arrivals[i] < p.Arrivals[i-1] {
			t.Error("arrivals must be non-decreasing")
		}
	}
}

func TestDetourWhenDoorClosed(t *testing.T) {
	g, _, ds := corridorVenue(t)
	// At 6:00 d2 is closed: must take the detour through X.
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(6, 0, 0)}
	p, _ := routeBoth(t, g, q)
	if p == nil {
		t.Fatal("no route")
	}
	for _, d := range p.Doors {
		if d == ds["d2"] {
			t.Fatal("path crosses closed d2")
		}
	}
	if err := p.Validate(g, q); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// The detour must be longer than the straight line.
	if p.Length <= 36 {
		t.Errorf("detour length = %v, should exceed 36", p.Length)
	}
	or := OracleShortest(g, q)
	if !or.Found || math.Abs(or.Length-p.Length) > 1e-9 {
		t.Errorf("oracle %v vs engine %v", or.Length, p.Length)
	}
}

func TestClosingWhileWalking(t *testing.T) {
	g, _, _ := corridorVenue(t)
	// Depart at 15:59:50: d2 (closes 16:00) is open at departure but the
	// walk to it (18 m ≈ 13 s) arrives just past 16:00 → detour.
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(15, 59, 55)}
	p, _ := routeBoth(t, g, q)
	if p == nil {
		t.Fatal("no route")
	}
	if p.Length <= 36 {
		t.Errorf("should be forced onto the detour, length = %v", p.Length)
	}
	if err := p.Validate(g, q); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Just before, the straight path still works end-to-end.
	q2 := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(15, 30, 0)}
	p2, _ := routeBoth(t, g, q2)
	if p2 == nil || math.Abs(p2.Length-36) > 1e-9 {
		t.Errorf("15:30 route length = %v, want 36", p2.Length)
	}
}

func TestNoRoute(t *testing.T) {
	g, _, _ := corridorVenue(t)
	// At 3:00 d2 closed; detour d4/d5 always open so D still reachable.
	// Cut everything: query into D at 3:00 requires d3 (open) and C —
	// reach C via detour; so route exists. Build a true no-route case:
	// source D, target B at 3:00 — B only reachable through d1 (open)
	// from A or d2 (closed) from C; A reachable via X. So still a route.
	// Instead make an isolated-at-night target: use a venue where the
	// only door into the target room is closed.
	b := model.NewBuilder("dead-end")
	hall := b.AddPartition("hall", model.HallwayPartition, geom.NewRect(0, 0, 10, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), sched("8:00", "16:00"))
	b.ConnectBi(d, hall, room)
	g2 := itgraph.MustNew(b.MustBuild())
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(20, 0, 0)}
	for _, m := range []Method{MethodSyn, MethodAsyn} {
		e := NewEngine(g2, Options{Method: m})
		p, st, err := e.Route(q)
		if !errors.Is(err, ErrNoRoute) {
			t.Errorf("%v: err = %v, want ErrNoRoute", m, err)
		}
		if p != nil {
			t.Errorf("%v: path should be nil", m)
		}
		if st.Found {
			t.Errorf("%v: stats.Found true on failure", m)
		}
		// RouteOrNil treats it as a regular outcome.
		p2, _, err2 := e.RouteOrNil(q)
		if p2 != nil || err2 != nil {
			t.Errorf("%v: RouteOrNil = %v, %v", m, p2, err2)
		}
	}
	_ = g
}

func TestPrivatePartitionRules(t *testing.T) {
	// A -d1- P(private) -d2- B, and a long public way A -d3- H -d4- B.
	b := model.NewBuilder("privacy")
	A := b.AddPartition("A", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	P := b.AddPartition("P", model.PrivatePartition, geom.NewRect(10, 0, 20, 10, 0))
	B := b.AddPartition("B", model.PublicPartition, geom.NewRect(20, 0, 30, 10, 0))
	H := b.AddPartition("H", model.HallwayPartition, geom.NewRect(0, 10, 30, 20, 0))
	d1 := b.AddDoor("d1", model.PrivateDoor, geom.Pt(10, 5, 0), nil)
	d2 := b.AddDoor("d2", model.PrivateDoor, geom.Pt(20, 5, 0), nil)
	d3 := b.AddDoor("d3", model.PublicDoor, geom.Pt(5, 10, 0), nil)
	d4 := b.AddDoor("d4", model.PublicDoor, geom.Pt(25, 10, 0), nil)
	b.ConnectBi(d1, A, P)
	b.ConnectBi(d2, P, B)
	b.ConnectBi(d3, A, H)
	b.ConnectBi(d4, H, B)
	g := itgraph.MustNew(b.MustBuild())

	noon := temporal.Clock(12, 0, 0)
	t.Run("through-route avoids private", func(t *testing.T) {
		q := Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(25, 5, 0), At: noon}
		p, _ := routeBoth(t, g, q)
		if p == nil {
			t.Fatal("no route")
		}
		for i, part := range p.Partitions {
			if part == P {
				t.Errorf("partition %d is the private P", i)
			}
		}
		if err := p.Validate(g, q); err != nil {
			t.Errorf("Validate: %v", err)
		}
	})
	t.Run("target inside private is allowed", func(t *testing.T) {
		q := Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: noon}
		p, _ := routeBoth(t, g, q)
		if p == nil {
			t.Fatal("target in private partition must be reachable")
		}
		if p.Hops() != 1 || p.Doors[0] != d1 {
			t.Errorf("path = %v, want direct through d1", p.Doors)
		}
		if err := p.Validate(g, q); err != nil {
			t.Errorf("Validate: %v", err)
		}
	})
	t.Run("source inside private is allowed", func(t *testing.T) {
		q := Query{Source: geom.Pt(15, 5, 0), Target: geom.Pt(25, 5, 0), At: noon}
		p, _ := routeBoth(t, g, q)
		if p == nil {
			t.Fatal("source in private partition must be able to leave")
		}
		if err := p.Validate(g, q); err != nil {
			t.Errorf("Validate: %v", err)
		}
	})
}

func TestOneWayDoors(t *testing.T) {
	// A -d(one-way A→B)- B with a long bidirectional way back.
	b := model.NewBuilder("one-way")
	A := b.AddPartition("A", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	B := b.AddPartition("B", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	H := b.AddPartition("H", model.HallwayPartition, geom.NewRect(0, 10, 20, 20, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), nil)
	d2 := b.AddDoor("d2", model.PublicDoor, geom.Pt(5, 10, 0), nil)
	d3 := b.AddDoor("d3", model.PublicDoor, geom.Pt(15, 10, 0), nil)
	b.ConnectOneWay(d, A, B)
	b.ConnectBi(d2, A, H)
	b.ConnectBi(d3, H, B)
	g := itgraph.MustNew(b.MustBuild())
	noon := temporal.Clock(12, 0, 0)

	fwd := Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: noon}
	p, _ := routeBoth(t, g, fwd)
	if p == nil || p.Hops() != 1 {
		t.Fatalf("forward should use the one-way door: %v", p)
	}
	back := Query{Source: geom.Pt(15, 5, 0), Target: geom.Pt(5, 5, 0), At: noon}
	p2, _ := routeBoth(t, g, back)
	if p2 == nil {
		t.Fatal("no route back")
	}
	if p2.Hops() != 2 {
		t.Errorf("backward hops = %d, want 2 (around through H)", p2.Hops())
	}
	for _, used := range p2.Doors {
		if used == d {
			t.Error("backward path crosses the one-way door against its direction")
		}
	}
	if err := p2.Validate(g, back); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNotIndoorErrors(t *testing.T) {
	g, _, _ := corridorVenue(t)
	e := NewEngine(g, Options{})
	if _, _, err := e.Route(Query{Source: geom.Pt(-5, -5, 0), Target: geom.Pt(5, 5, 0)}); !errors.Is(err, ErrNotIndoor) {
		t.Errorf("outdoor source err = %v", err)
	}
	if _, _, err := e.Route(Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(999, 999, 0)}); !errors.Is(err, ErrNotIndoor) {
		t.Errorf("outdoor target err = %v", err)
	}
	if _, _, err := e.Route(Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(5, 5, 7)}); !errors.Is(err, ErrNotIndoor) {
		t.Errorf("wrong-floor target err = %v", err)
	}
}

func TestEagerHeapMatchesLazy(t *testing.T) {
	g, _, _ := corridorVenue(t)
	for _, at := range []temporal.TimeOfDay{temporal.Clock(6, 0, 0), temporal.Clock(12, 0, 0), temporal.Clock(23, 0, 0)} {
		q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: at}
		lazy := NewEngine(g, Options{Method: MethodSyn})
		eager := NewEngine(g, Options{Method: MethodSyn, EagerHeapInit: true})
		pl, _, errL := lazy.Route(q)
		pe, _, errE := eager.Route(q)
		if (errL == nil) != (errE == nil) {
			t.Fatalf("at %v: lazy err %v vs eager err %v", at, errL, errE)
		}
		if errL == nil && math.Abs(pl.Length-pe.Length) > 1e-9 {
			t.Errorf("at %v: lazy %v vs eager %v", at, pl.Length, pe.Length)
		}
	}
}

func TestNoDistanceMatrixMatchesDM(t *testing.T) {
	g, _, _ := corridorVenue(t)
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(12, 0, 0)}
	a := NewEngine(g, Options{Method: MethodSyn})
	bE := NewEngine(g, Options{Method: MethodSyn, NoDistanceMatrix: true})
	pa, _, err1 := a.Route(q)
	pb, _, err2 := bE.Route(q)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(pa.Length-pb.Length) > 1e-9 {
		t.Errorf("DM %v vs recompute %v", pa.Length, pb.Length)
	}
}

func TestSearchStatsPopulated(t *testing.T) {
	g, _, _ := corridorVenue(t)
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(12, 0, 0)}
	for _, m := range []Method{MethodSyn, MethodAsyn} {
		e := NewEngine(g, Options{Method: m})
		_, st, err := e.Route(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pops == 0 || st.Settled == 0 || st.Relaxations == 0 {
			t.Errorf("%v: empty counters %+v", m, st)
		}
		if st.DoorsTouched == 0 || st.PartitionsVisited == 0 || st.HeapMax == 0 {
			t.Errorf("%v: empty aggregates %+v", m, st)
		}
		if st.BytesEstimate <= 0 {
			t.Errorf("%v: bytes estimate %d", m, st.BytesEstimate)
		}
		if m == MethodSyn && (st.Checker.Checks == 0 || st.Checker.ATIProbes == 0) {
			t.Error("Syn must probe ATIs")
		}
		if m == MethodAsyn && st.Checker.SnapshotProbes == 0 && st.Checker.PrunedLists == 0 {
			t.Error("Asyn must probe snapshots or use reduced lists")
		}
		if !st.Found || st.PathHops == 0 || st.PathLength <= 0 {
			t.Errorf("%v: result stats %+v", m, st)
		}
		if st.Method != m.String() {
			t.Errorf("method name %q vs %q", st.Method, m.String())
		}
	}
}

func TestStaticRouterIgnoresTime(t *testing.T) {
	g, _, ds := corridorVenue(t)
	r := NewStaticRouter(g)
	// At 3:00 d2 is closed but the static baseline uses it anyway.
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(3, 0, 0)}
	p, _, err := r.Route(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Length-36) > 1e-9 {
		t.Errorf("static length = %v, want 36", p.Length)
	}
	used := false
	for _, d := range p.Doors {
		used = used || d == ds["d2"]
	}
	if !used {
		t.Error("static path should cross the closed d2")
	}
	// And its path fails temporal validation.
	if err := p.Validate(g, q); err == nil {
		t.Error("static path should be temporally invalid at 3:00")
	}
	// StaticThenValidate therefore reports no route...
	if _, err := StaticThenValidate(g, q); !errors.Is(err, ErrNoRoute) {
		t.Errorf("StaticThenValidate err = %v, want ErrNoRoute", err)
	}
	// ...even though ITSPQ finds the valid detour — the paper's second
	// motivation.
	p2, _ := routeBoth(t, g, q)
	if p2 == nil {
		t.Fatal("ITSPQ should find the detour")
	}
}

func TestWaitingRouter(t *testing.T) {
	g, _, _ := corridorVenue(t)
	w := NewWaitingRouter(g)
	// Departing 7:59:45, the straight path reaches d2 at 7:59:58 — a 2 s
	// wait until 8:00 beats the detour (4.9 m ≈ 3.5 s longer walk).
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(7, 59, 45)}
	p, err := w.Route(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalWait <= 0 {
		t.Errorf("expected waiting, got %v", p.TotalWait)
	}
	if math.Abs(p.Length-36) > 1e-9 {
		t.Errorf("waiting path length = %v, want straight 36", p.Length)
	}
	if err := p.Validate(g, q); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// The no-waiting engine must instead detour (longer walk).
	e := NewEngine(g, Options{})
	p2, _, err := e.Route(q)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Length <= 36 {
		t.Errorf("no-waiting length = %v, expected detour > 36", p2.Length)
	}
	// Waiting arrival must be no later than the no-waiting arrival.
	if p.ArrivalAtTgt > p2.ArrivalAtTgt+1e-9 {
		t.Errorf("waiting arrives at %v, later than no-waiting %v", p.ArrivalAtTgt, p2.ArrivalAtTgt)
	}
}

func TestWaitingRouterNoRouteAfterClose(t *testing.T) {
	b := model.NewBuilder("closed-for-day")
	hall := b.AddPartition("hall", model.HallwayPartition, geom.NewRect(0, 0, 10, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), sched("8:00", "16:00"))
	b.ConnectBi(d, hall, room)
	g := itgraph.MustNew(b.MustBuild())
	w := NewWaitingRouter(g)
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(17, 0, 0)}
	if _, err := w.Route(q); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute (door never reopens today)", err)
	}
	// Before opening: waits until 8:00.
	q2 := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(7, 0, 0)}
	p, err := w.Route(q2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Arrivals[0] != temporal.Clock(8, 0, 0) {
		t.Errorf("crossing at %v, want 8:00", p.Arrivals[0])
	}
	if err := p.Validate(g, q2); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestWaitingRouterMidnight: the waiting router answers within the
// day. A door reached at or after 24:00 cannot be crossed, and neither
// can the final leg end there: a same-partition walk that would arrive
// at 24:00:01 is not found.
func TestWaitingRouterMidnight(t *testing.T) {
	g := itgraph.MustNew(synth.Hospital())
	w := NewWaitingRouter(g)
	late := temporal.Clock(23, 59, 59)
	for _, tc := range []struct {
		name     string
		from, to geom.Point
	}{
		{"same partition, arrives 24:00:01", geom.Pt(30, 10, 0), geom.Pt(33, 10, 0)},
		{"lobby to ER through the 24 h door", geom.Pt(10, 10, 0), geom.Pt(30, 10, 0)},
	} {
		p, err := w.Route(Query{Source: tc.from, Target: tc.to, At: late})
		if !errors.Is(err, ErrNoRoute) {
			t.Errorf("%s: got %v, %v; want ErrNoRoute", tc.name, p, err)
		}
	}
}

func TestPathFormatting(t *testing.T) {
	g, _, _ := corridorVenue(t)
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(12, 0, 0)}
	p, _ := routeBoth(t, g, q)
	if p == nil {
		t.Fatal("no route")
	}
	s := p.Format(g.Venue())
	if s != "(ps, d1, d2, d3, pt)" {
		t.Errorf("Format = %q", s)
	}
	if p.String() == "" {
		t.Error("String empty")
	}
}

func TestMethodString(t *testing.T) {
	if MethodSyn.String() != "ITG/S" || MethodAsyn.String() != "ITG/A" || MethodStatic.String() != "Static" {
		t.Error("method names")
	}
	if Method(9).String() == "" {
		t.Error("unknown method name empty")
	}
}

func TestValidateRejectsTampering(t *testing.T) {
	g, _, ds := corridorVenue(t)
	q := Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(38, 5, 0), At: temporal.Clock(12, 0, 0)}
	p, _ := routeBoth(t, g, q)
	if p == nil {
		t.Fatal("no route")
	}
	t.Run("wrong length", func(t *testing.T) {
		bad := *p
		bad.Length += 5
		if err := bad.Validate(g, q); err == nil {
			t.Error("tampered length accepted")
		}
	})
	t.Run("door swap breaks connectivity", func(t *testing.T) {
		bad := *p
		bad.Doors = append([]model.DoorID(nil), p.Doors...)
		bad.Doors[0] = ds["d5"]
		if err := bad.Validate(g, q); err == nil {
			t.Error("disconnected path accepted")
		}
	})
	t.Run("truncated arrivals", func(t *testing.T) {
		bad := *p
		bad.Arrivals = bad.Arrivals[:1]
		if err := bad.Validate(g, q); err == nil {
			t.Error("malformed arrivals accepted")
		}
	})
	t.Run("closed-door arrivals", func(t *testing.T) {
		q2 := q
		q2.At = temporal.Clock(3, 0, 0) // d2 closed
		bad := *p
		bad.DepartedAt = q2.At
		if err := bad.Validate(g, q2); err == nil {
			t.Error("path crossing closed door accepted")
		}
	})
}

// TestLiteralExpansionSuboptimal pins down interpretation note 8 of
// DESIGN.md with the minimal counterexample: an elongated corridor
// whose far entrance settles first. The literal "visited partitions"
// variant routes the length of the corridor; the exact default takes
// the near entrance.
func TestLiteralExpansionSuboptimal(t *testing.T) {
	b := model.NewBuilder("elongated")
	// corridor spans x 0..100; room A at its west end, a detour row
	// that reaches the corridor's east end cheaply, and a target room
	// hanging off the corridor near the east end.
	corridor := b.AddPartition("corridor", model.HallwayPartition, geom.NewRect(0, 10, 100, 20, 0))
	start := b.AddPartition("start", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	express := b.AddPartition("express", model.HallwayPartition, geom.NewRect(10, 0, 100, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(90, 20, 100, 30, 0))

	west := b.AddDoor("west", model.PublicDoor, geom.Pt(5, 10, 0), nil)      // start→corridor at x=5
	sideE := b.AddDoor("side", model.PublicDoor, geom.Pt(10, 5, 0), nil)     // start→express
	east := b.AddDoor("east", model.PublicDoor, geom.Pt(95, 10, 0), nil)     // express→corridor at x=95
	target := b.AddDoor("target", model.PublicDoor, geom.Pt(95, 20, 0), nil) // corridor→room at x=95
	b.ConnectBi(west, start, corridor)
	b.ConnectBi(sideE, start, express)
	b.ConnectBi(east, express, corridor)
	b.ConnectBi(target, corridor, room)
	// The express row carries a moving walkway: crossing it costs 10 m
	// of effort, so the corridor's east entrance is reached at cost 15
	// while its west entrance settles first at cost 5.
	b.SetDistance(express, sideE, east, 10)
	g := itgraph.MustNew(b.MustBuild())

	q := Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(95, 25, 0), At: temporal.Clock(12, 0, 0)}
	exact := NewEngine(g, Options{Method: MethodSyn})
	literal := NewEngine(g, Options{Method: MethodSyn, SinglePartitionExpansion: true})
	pe, _, err := exact.Route(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := literal.Route(q)
	if err != nil {
		t.Fatal(err)
	}
	// Exact: start → side → east → target = 5+10+10+5 = 30. The west
	// door settles first (5 m), so the literal variant expands the
	// corridor from the west only and walks its whole diagonal.
	if math.Abs(pe.Length-30) > 1e-9 {
		t.Fatalf("exact length = %v, want 30", pe.Length)
	}
	if pl.Length <= pe.Length+50 {
		t.Fatalf("literal %v should be far longer than exact %v", pl.Length, pe.Length)
	}
	if err := pe.Validate(g, q); err != nil {
		t.Error(err)
	}
	if err := pl.Validate(g, q); err != nil {
		t.Error(err) // literal paths are longer but still valid
	}
	or := OracleShortest(g, q)
	if !or.Found || math.Abs(or.Length-pe.Length) > 1e-9 {
		t.Errorf("oracle %v vs exact %v", or.Length, pe.Length)
	}
}

func TestCustomSpeed(t *testing.T) {
	g, _, _ := corridorVenue(t)
	// Slow walker departing 15:59: cannot reach d2 (20 m away in-path)
	// before 16:00 at 0.1 m/s; the fast default walker can.
	src, tgt := geom.Pt(2, 5, 0), geom.Pt(38, 5, 0)
	at := temporal.Clock(15, 58, 0)
	fast := Query{Source: src, Target: tgt, At: at}
	slow := Query{Source: src, Target: tgt, At: at, Speed: 0.1}
	e := NewEngine(g, Options{})
	pf, _, err := e.Route(fast)
	if err != nil || math.Abs(pf.Length-36) > 1e-9 {
		t.Fatalf("fast: %v %v", pf, err)
	}
	psl, _, err := e.Route(slow)
	if err != nil {
		t.Fatal(err)
	}
	if psl.Length <= 36 {
		t.Errorf("slow walker should detour, length = %v", psl.Length)
	}
}
