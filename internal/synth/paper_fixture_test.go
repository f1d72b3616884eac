package synth

import (
	"errors"
	"math"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// The fixture must reproduce every fact the paper states about its
// running example (Figure 1, Figure 2, Table I, Example 1, Section
// II-A's mapping walkthrough).

func ids(t *testing.T, v *model.Venue, names ...string) []model.DoorID {
	t.Helper()
	out := make([]model.DoorID, len(names))
	for i, n := range names {
		id, ok := v.DoorByName(n)
		if !ok {
			t.Fatalf("door %q missing", n)
		}
		out[i] = id
	}
	return out
}

func pid(t *testing.T, v *model.Venue, name string) model.PartitionID {
	t.Helper()
	id, ok := v.PartitionByName(name)
	if !ok {
		t.Fatalf("partition %q missing", name)
	}
	return id
}

func TestFixtureShape(t *testing.T) {
	ex := PaperFigure1()
	v := ex.Venue
	st := v.Stats()
	if st.Partitions != 18 { // v1..v17 + outdoors
		t.Errorf("partitions = %d, want 18", st.Partitions)
	}
	if st.Doors != 21 {
		t.Errorf("doors = %d, want 21", st.Doors)
	}
	if st.PrivateParts != 3 { // v1, v9, v15
		t.Errorf("private partitions = %d, want 3", st.PrivateParts)
	}
	if st.MultiATIDoors != 2 { // d9 and d13 per Table I
		t.Errorf("multi-ATI doors = %d, want 2", st.MultiATIDoors)
	}
}

func TestFixtureMappingFacts(t *testing.T) {
	v := PaperFigure1().Venue
	d3 := ids(t, v, "d3")[0]
	v3, v16 := pid(t, v, "v3"), pid(t, v, "v16")

	// D2P(d3) = {v3, v16}.
	parts := v.PartitionsOf(d3)
	if len(parts) != 2 {
		t.Fatalf("D2P(d3) = %v", parts)
	}
	// D2P◁(d3) = v3, D2P▷(d3) = v16.
	if lv := v.LeaveParts(d3); len(lv) != 1 || lv[0] != v3 {
		t.Errorf("D2P◁(d3) = %v, want {v3}", lv)
	}
	if ev := v.EnterParts(d3); len(ev) != 1 || ev[0] != v16 {
		t.Errorf("D2P▷(d3) = %v, want {v16}", ev)
	}
	// P2D(v3) = P2D◁(v3) = {d1,d2,d3,d5,d6}; P2D▷(v3) = {d1,d2,d5,d6}.
	want := map[string]bool{"d1": true, "d2": true, "d3": true, "d5": true, "d6": true}
	all := v.DoorsOf(v3)
	if len(all) != 5 {
		t.Fatalf("P2D(v3) size = %d: %v", len(all), all)
	}
	for _, d := range all {
		if !want[v.Door(d).Name] {
			t.Errorf("unexpected door %s on v3", v.Door(d).Name)
		}
	}
	if lv := v.LeaveDoors(v3); len(lv) != 5 {
		t.Errorf("P2D◁(v3) size = %d", len(lv))
	}
	enter := v.EnterDoors(v3)
	if len(enter) != 4 {
		t.Fatalf("P2D▷(v3) size = %d", len(enter))
	}
	for _, d := range enter {
		if v.Door(d).Name == "d3" {
			t.Error("d3 must not be enterable into v3")
		}
	}
	// v1 is private with the single door d1.
	v1 := pid(t, v, "v1")
	if !v.Partition(v1).Kind.IsPrivate() {
		t.Error("v1 must be private")
	}
	if ds := v.DoorsOf(v1); len(ds) != 1 || v.Door(ds[0]).Name != "d1" {
		t.Errorf("P2D(v1) = %v, want {d1}", ds)
	}
	// d7 is a private door (Figure 2's door table row).
	d7 := ids(t, v, "d7")[0]
	if v.Door(d7).Kind != model.PrivateDoor {
		t.Error("d7 must be PRD")
	}
	if v.Door(d7).ATIs.String() != "〈[6:00, 23:30)〉" {
		t.Errorf("d7 ATIs = %v", v.Door(d7).ATIs)
	}
	// v16's published DM.
	dd := ids(t, v, "d3", "d17", "d21")
	g := itgraph.MustNew(v)
	if got := g.DM().Dist(v16, dd[0], dd[1]); got != 2 {
		t.Errorf("DM(v16,d3,d17) = %v, want 2", got)
	}
	if got := g.DM().Dist(v16, dd[0], dd[2]); got != 4 {
		t.Errorf("DM(v16,d3,d21) = %v, want 4", got)
	}
	if got := g.DM().Dist(v16, dd[1], dd[2]); got != 5 {
		t.Errorf("DM(v16,d17,d21) = %v, want 5", got)
	}
}

func TestFixtureTableI(t *testing.T) {
	v := PaperFigure1().Venue
	atis := map[string]string{
		"d1":  "〈[5:00, 23:00)〉",
		"d2":  "〈[8:00, 16:00)〉",
		"d3":  "〈[6:00, 23:00)〉",
		"d4":  "〈[9:00, 18:00)〉",
		"d5":  "〈[6:30, 23:00)〉",
		"d6":  "〈[8:00, 16:00)〉",
		"d7":  "〈[6:00, 23:30)〉",
		"d8":  "〈[9:00, 18:00)〉",
		"d9":  "〈[0:00, 6:00), [6:30, 23:00)〉",
		"d10": "〈[8:00, 16:00)〉",
		"d11": "〈[5:00, 23:00)〉",
		"d12": "〈[5:00, 23:00)〉",
		"d13": "〈[5:00, 17:00), [18:00, 23:00)〉",
		"d14": "〈[0:00, 24:00)〉",
		"d15": "〈[8:00, 16:00)〉",
		"d16": "〈[8:00, 17:00)〉",
		"d17": "〈[0:00, 24:00)〉",
		"d18": "〈[0:00, 23:00)〉",
		"d19": "〈[8:00, 16:00)〉",
		"d20": "〈[5:00, 23:00)〉",
		"d21": "〈[8:00, 16:00)〉",
	}
	for name, want := range atis {
		id, ok := v.DoorByName(name)
		if !ok {
			t.Fatalf("door %s missing", name)
		}
		if got := v.Door(id).ATIs.String(); got != want {
			t.Errorf("%s ATIs = %s, want %s", name, got, want)
		}
	}
}

func TestFixtureExample1At9(t *testing.T) {
	ex := PaperFigure1()
	g := itgraph.MustNew(ex.Venue)
	// 33:00 is 9:00 the next day: Route answers for At.Mod(), and
	// Validate must accept that answer too.
	for _, at := range []temporal.TimeOfDay{temporal.MustParse("9:00"), temporal.MustParse("9:00") + temporal.DaySeconds} {
		q := core.Query{Source: ex.P3, Target: ex.P4, At: at}
		for _, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
			e := core.NewEngine(g, core.Options{Method: m})
			p, _, err := e.Route(q)
			if err != nil {
				t.Fatalf("%v at %v: %v", m, float64(at), err)
			}
			if got := p.Format(ex.Venue); got != "(ps, d18, pt)" {
				t.Errorf("%v at %v: path = %s, want (ps, d18, pt)", m, float64(at), got)
			}
			if math.Abs(p.Length-12) > 1e-9 {
				t.Errorf("%v at %v: length = %v, want 12", m, float64(at), p.Length)
			}
			if err := p.Validate(g, q); err != nil {
				t.Errorf("%v at %v: Validate: %v", m, float64(at), err)
			}
		}
	}
	// The rejected candidate (p3, d15, d16, p4) is indeed 10 m but runs
	// through private v15: verify its geometry and its invalidity.
	v := ex.Venue
	dd := ids(t, v, "d15", "d16")
	v15 := pid(t, v, "v15")
	lenA := ex.P3.DistXY(v.Door(dd[0]).Pos) +
		g.DM().Dist(v15, dd[0], dd[1]) +
		v.Door(dd[1]).Pos.DistXY(ex.P4)
	if math.Abs(lenA-10) > 1e-9 {
		t.Errorf("candidate through v15 = %v, want 10", lenA)
	}
	if !v.Partition(v15).Kind.IsPrivate() {
		t.Error("v15 must be private")
	}
}

func TestFixtureExample1At2330(t *testing.T) {
	ex := PaperFigure1()
	g := itgraph.MustNew(ex.Venue)
	q := core.Query{Source: ex.P3, Target: ex.P4, At: temporal.MustParse("23:30")}
	for _, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
		e := core.NewEngine(g, core.Options{Method: m})
		_, _, err := e.Route(q)
		if !errors.Is(err, core.ErrNoRoute) {
			t.Errorf("%v: err = %v, want ErrNoRoute (paper: returns null)", m, err)
		}
	}
	// Confirm the reason: d18 is closed at 23:30.
	d18 := ids(t, ex.Venue, "d18")[0]
	if ex.Venue.Door(d18).OpenAt(temporal.MustParse("23:30")) {
		t.Error("d18 must be closed at 23:30")
	}
}

func TestFixtureOtherQueries(t *testing.T) {
	ex := PaperFigure1()
	g := itgraph.MustNew(ex.Venue)
	// p1 (hallway v3) to p2 (hallway v8) at noon: hallways link through
	// v6/v13/.../v10 or around; must exist and validate.
	q := core.Query{Source: ex.P1, Target: ex.P2, At: temporal.MustParse("12:00")}
	e := core.NewEngine(g, core.Options{})
	p, _, err := e.Route(q)
	if err != nil {
		t.Fatalf("p1→p2 at noon: %v", err)
	}
	if err := p.Validate(g, q); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Against the exhaustive oracle.
	or := core.OracleShortest(g, q)
	if !or.Found || math.Abs(or.Length-p.Length) > 1e-9 {
		t.Errorf("oracle %v vs engine %v", or.Length, p.Length)
	}
	// At 4:00 only d9, d14, d17, d18 are open; v2 (behind d2) must be
	// unreachable.
	v2c := ex.Venue.Partition(pid(t, ex.Venue, "v2")).Rect.Center()
	q2 := core.Query{Source: ex.P3, Target: v2c, At: temporal.MustParse("4:00")}
	if _, _, err := e.Route(q2); !errors.Is(err, core.ErrNoRoute) {
		t.Errorf("v2 at 4:00: err = %v, want ErrNoRoute", err)
	}
}

func TestFixtureSerialisationRoundTrip(t *testing.T) {
	ex := PaperFigure1()
	// The fixture survives a save/load cycle with Example 1 intact.
	var err error
	doc := itgraph.Encode(ex.Venue)
	v2, err := doc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	g := itgraph.MustNew(v2)
	e := core.NewEngine(g, core.Options{})
	p, _, err := e.Route(core.Query{Source: ex.P3, Target: ex.P4, At: temporal.MustParse("9:00")})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Length-12) > 1e-9 {
		t.Errorf("after round trip: length = %v", p.Length)
	}
}
