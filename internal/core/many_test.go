package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// manyGridVenue builds a grid of rooms with randomised door schedules,
// positions, directionality and a sprinkle of private rooms — the
// adversarial fixture for shared-execution equivalence. It mirrors the
// serving layer's grid fixture so the two suites cover the same ground
// from both sides of the engine API.
func manyGridVenue(t testing.TB, rng *rand.Rand, rows, cols int) *model.Venue {
	t.Helper()
	b := model.NewBuilder(fmt.Sprintf("many-grid-%dx%d", rows, cols))
	const cell = 10.0
	parts := make([][]model.PartitionID, rows)
	for r := 0; r < rows; r++ {
		parts[r] = make([]model.PartitionID, cols)
		for c := 0; c < cols; c++ {
			kind := model.PublicPartition
			corner := (r == 0 || r == rows-1) && (c == 0 || c == cols-1)
			if !corner && rng.Float64() < 0.15 {
				kind = model.PrivatePartition
			}
			parts[r][c] = b.AddPartition(fmt.Sprintf("r%dc%d", r, c), kind,
				geom.NewRect(float64(c)*cell, float64(r)*cell, float64(c+1)*cell, float64(r+1)*cell, 0))
		}
	}
	randSched := func() temporal.Schedule {
		if rng.Intn(3) == 0 {
			return nil // always open
		}
		o := temporal.TimeOfDay(rng.Intn(14) * 3600)
		return temporal.MustSchedule(temporal.MustInterval(o, o+temporal.TimeOfDay(3600*(2+rng.Intn(10)))))
	}
	connect := func(d model.DoorID, a, b2 model.PartitionID) {
		if rng.Float64() < 0.15 {
			b.ConnectOneWay(d, a, b2) // one-way door
			return
		}
		b.ConnectBi(d, a, b2)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && rng.Float64() < 0.92 {
				d := b.AddDoor("", model.PublicDoor,
					geom.Pt(float64(c+1)*cell, float64(r)*cell+rng.Float64()*cell, 0), randSched())
				connect(d, parts[r][c], parts[r][c+1])
			}
			if r+1 < rows && rng.Float64() < 0.92 {
				d := b.AddDoor("", model.PublicDoor,
					geom.Pt(float64(c)*cell+rng.Float64()*cell, float64(r+1)*cell, 0), randSched())
				connect(d, parts[r][c], parts[r+1][c])
			}
		}
	}
	return b.MustBuild()
}

// assertSameAsSolo checks one ManyOutcome against the solo engine
// answer for the same query, byte for byte.
func assertSameAsSolo(t *testing.T, label string, e *Engine, q Query, got ManyOutcome) {
	t.Helper()
	wantPath, _, wantErr := e.Route(q)
	if (got.Err == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, solo err = %v", label, got.Err, wantErr)
	}
	if got.Err != nil {
		if errors.Is(got.Err, ErrNoRoute) != errors.Is(wantErr, ErrNoRoute) ||
			errors.Is(got.Err, ErrNotIndoor) != errors.Is(wantErr, ErrNotIndoor) ||
			got.Err.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %v, solo err = %v", label, got.Err, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got.Path, wantPath) {
		t.Fatalf("%s: shared path differs from solo\n got: %+v\nwant: %+v", label, got.Path, wantPath)
	}
}

var manyMethods = []Method{MethodSyn, MethodAsyn, MethodStatic}

// TestRouteManyMatchesSolo: a shared-source fan-out over many random
// targets (locatable or not, private or not) is byte-identical per
// target to solo Route, for every method, on two fixtures.
func TestRouteManyMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(1201))
	for trial, dims := range [][2]int{{4, 5}, {6, 6}} {
		v := manyGridVenue(t, rng, dims[0], dims[1])
		g := itgraph.MustNew(v)
		w := float64(dims[1]) * 10
		h := float64(dims[0]) * 10
		for probe := 0; probe < 4; probe++ {
			src := geom.Pt(rng.Float64()*w, rng.Float64()*h, 0)
			at := temporal.TimeOfDay(rng.Intn(86400))
			var targets []geom.Point
			for i := 0; i < 24; i++ {
				targets = append(targets, geom.Pt(rng.Float64()*w, rng.Float64()*h, 0))
			}
			targets = append(targets, geom.Pt(-40, 0, 0)) // unlocatable
			targets = append(targets, src)                // source partition target
			targets = append(targets, targets[0])         // duplicate
			for _, m := range manyMethods {
				e := NewEngine(g, Options{Method: m})
				solo := NewEngine(g, Options{Method: m})
				outs := e.RouteMany(src, targets, at, 0)
				if len(outs) != len(targets) {
					t.Fatalf("RouteMany returned %d outcomes for %d targets", len(outs), len(targets))
				}
				for j, o := range outs {
					label := fmt.Sprintf("trial %d probe %d method %v target %d", trial, probe, m, j)
					assertSameAsSolo(t, label, solo, Query{Source: src, Target: targets[j], At: at}, o)
				}
			}
		}
	}
}

// TestRouteManyUnlocatableSource: every outcome carries the solo
// source error when the shared source is outside the venue.
func TestRouteManyUnlocatableSource(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	g := itgraph.MustNew(manyGridVenue(t, rng, 3, 3))
	e := NewEngine(g, Options{})
	src := geom.Pt(-5, -5, 0)
	outs := e.RouteMany(src, []geom.Point{geom.Pt(5, 5, 0), geom.Pt(15, 15, 0)}, temporal.Clock(12, 0, 0), 0)
	solo := NewEngine(g, Options{})
	for j, o := range outs {
		if o.Err == nil || !errors.Is(o.Err, ErrNotIndoor) {
			t.Fatalf("target %d: err = %v, want ErrNotIndoor", j, o.Err)
		}
		_, _, wantErr := solo.Route(Query{Source: src, Target: geom.Pt(5, 5, 0), At: temporal.Clock(12, 0, 0)})
		if o.Err.Error() != wantErr.Error() {
			t.Fatalf("target %d: err %q, solo err %q", j, o.Err, wantErr)
		}
	}
}

// TestRouteManyPrivateTargetsGoSolo: targets in private partitions are
// answered by fallback searches (Solo flag) and still match solo.
func TestRouteManyPrivateTargetsGoSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	var v *model.Venue
	var private geom.Point
	found := false
	for tries := 0; tries < 20 && !found; tries++ {
		v = manyGridVenue(t, rng, 5, 5)
		for p := 0; p < v.PartitionCount(); p++ {
			part := v.Partition(model.PartitionID(p))
			if part.Kind.IsPrivate() {
				r := part.Rect
				private = geom.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2, part.Floor())
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no private partition generated")
	}
	g := itgraph.MustNew(v)
	e := NewEngine(g, Options{Method: MethodSyn})
	src := geom.Pt(2, 2, 0)
	outs := e.RouteMany(src, []geom.Point{private, geom.Pt(42, 42, 0)}, temporal.Clock(12, 0, 0), 0)
	if !outs[0].Solo {
		t.Fatal("private-partition target was not routed solo")
	}
	if outs[1].Solo {
		t.Fatal("public target was routed solo")
	}
	solo := NewEngine(g, Options{Method: MethodSyn})
	assertSameAsSolo(t, "private target", solo, Query{Source: src, Target: private, At: temporal.Clock(12, 0, 0)}, outs[0])
}

// TestRouteManyToMatchesSolo: the reverse destination-rooted run of the
// static method is byte-identical per source to solo Route; temporal
// methods fall back to solo searches (and still match trivially).
func TestRouteManyToMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	for trial, dims := range [][2]int{{4, 5}, {6, 6}} {
		v := manyGridVenue(t, rng, dims[0], dims[1])
		g := itgraph.MustNew(v)
		w := float64(dims[1]) * 10
		h := float64(dims[0]) * 10
		for probe := 0; probe < 4; probe++ {
			tgt := geom.Pt(rng.Float64()*w, rng.Float64()*h, 0)
			at := temporal.TimeOfDay(rng.Intn(86400))
			var sources []geom.Point
			for i := 0; i < 24; i++ {
				sources = append(sources, geom.Pt(rng.Float64()*w, rng.Float64()*h, 0))
			}
			sources = append(sources, geom.Pt(-40, 0, 0)) // unlocatable
			sources = append(sources, tgt)                // target partition source
			for _, m := range manyMethods {
				e := NewEngine(g, Options{Method: m})
				solo := NewEngine(g, Options{Method: m})
				outs := e.RouteManyTo(sources, tgt, at, 0)
				sharedSeen := false
				for j, o := range outs {
					label := fmt.Sprintf("trial %d probe %d method %v source %d", trial, probe, m, j)
					assertSameAsSolo(t, label, solo, Query{Source: sources[j], Target: tgt, At: at}, o)
					sharedSeen = sharedSeen || (!o.Solo && o.Err == nil)
				}
				if m != MethodStatic {
					for j, o := range outs {
						if o.Err == nil && !o.Solo {
							t.Fatalf("method %v source %d: temporal RouteManyTo did not fall back to solo", m, j)
						}
					}
				} else if !sharedSeen && probe == 0 && trial == 0 {
					t.Log("note: no shared reverse answers on this draw")
				}
			}
		}
	}
}

// TestRebaseDeparture: a static answer rebased to a different departure
// is byte-identical to a fresh static search at that departure.
func TestRebaseDeparture(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	v := manyGridVenue(t, rng, 4, 4)
	g := itgraph.MustNew(v)
	e := NewEngine(g, Options{Method: MethodStatic})
	solo := NewEngine(g, Options{Method: MethodStatic})
	rebased := 0
	for probe := 0; probe < 40; probe++ {
		q := Query{
			Source: geom.Pt(rng.Float64()*40, rng.Float64()*40, 0),
			Target: geom.Pt(rng.Float64()*40, rng.Float64()*40, 0),
			At:     temporal.TimeOfDay(rng.Intn(86400)),
		}
		p, _, err := e.Route(q)
		if err != nil {
			continue
		}
		q2 := q
		q2.At = temporal.TimeOfDay(rng.Intn(2 * 86400)) // may need Mod
		got := e.RebaseDeparture(p, q2)
		want, _, err := solo.Route(q2)
		if err != nil {
			t.Fatalf("solo static re-route failed: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rebased path differs from fresh search\n got: %+v\nwant: %+v", got, want)
		}
		rebased++
	}
	if rebased == 0 {
		t.Fatal("no found paths to rebase")
	}
}

// TestRouteManyEngineReusableAfter: a shared run must leave the engine
// in a clean state for ordinary Route calls (pooling contract).
func TestRouteManyEngineReusableAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	v := manyGridVenue(t, rng, 4, 4)
	g := itgraph.MustNew(v)
	e := NewEngine(g, Options{Method: MethodAsyn})
	solo := NewEngine(g, Options{Method: MethodAsyn})
	src := geom.Pt(5, 5, 0)
	targets := []geom.Point{geom.Pt(35, 35, 0), geom.Pt(15, 25, 0)}
	e.RouteMany(src, targets, temporal.Clock(11, 0, 0), 0)
	q := Query{Source: geom.Pt(12, 8, 0), Target: geom.Pt(33, 14, 0), At: temporal.Clock(13, 0, 0)}
	gotPath, _, gotErr := e.Route(q)
	wantPath, _, wantErr := solo.Route(q)
	if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotPath, wantPath) {
		t.Fatalf("post-RouteMany Route diverged: %v/%v vs %v/%v", gotPath, gotErr, wantPath, wantErr)
	}
}

// TestSharedRunsMatchRouteOnMall: over same-source groups of 8 mall
// queries, stairwell targets included, RouteMany equals solo Route byte
// for byte, and the static RouteManyTo over same-target groups agrees
// with Route on found-or-not and, up to its reverse summation order, on
// length.
func TestSharedRunsMatchRouteOnMall(t *testing.T) {
	g, qs := mallQueries(t, 1200)
	v := g.Venue()
	stairs := 0
	for _, q := range qs {
		if tp, _ := v.Locate(q.Target); v.Partition(tp).Kind == model.StairwellPartition {
			stairs++
		}
	}
	if stairs == 0 {
		t.Fatal("no stairwell target among the queries")
	}
	for _, m := range manyMethods {
		e := NewEngine(g, Options{Method: m})
		solo := NewEngine(g, Options{Method: m})
		for k := 0; k+8 <= len(qs); k += 8 {
			group := qs[k : k+8]
			tgts := make([]geom.Point, len(group))
			srcs := make([]geom.Point, len(group))
			for j, q := range group {
				tgts[j], srcs[j] = q.Target, q.Source
			}
			src := group[0]
			for j, o := range e.RouteMany(src.Source, tgts, src.At, src.Speed) {
				q := Query{Source: src.Source, Target: tgts[j], At: src.At, Speed: src.Speed}
				assertSameAsSolo(t, fmt.Sprintf("%v RouteMany group %d target %d", m, k/8, j), solo, q, o)
			}
			if m != MethodStatic {
				continue
			}
			for j, o := range e.RouteManyTo(srcs, src.Target, src.At, src.Speed) {
				q := Query{Source: srcs[j], Target: src.Target, At: src.At, Speed: src.Speed}
				p, _, err := solo.Route(q)
				if (o.Err == nil) != (err == nil) {
					t.Fatalf("RouteManyTo group %d source %d: err = %v, solo err = %v", k/8, j, o.Err, err)
				}
				if err == nil && math.Abs(o.Path.Length-p.Length) > 1e-9*p.Length {
					t.Fatalf("RouteManyTo group %d source %d: length %v, solo %v", k/8, j, o.Path.Length, p.Length)
				}
			}
		}
	}
}

// TestRouteManyGoalTieAtDoor: the target lies on door u of its
// partition P. It is 7 m away both through u (4 m to door w, then a 3 m
// override across B to u) and through door v (5 m, then 2 m inside P).
// Route's target node pops after every door of key 7, so it takes u,
// the lower predecessor handle; the shared run's goal must stay open
// until the frontier passes 7 to take u as well.
func TestRouteManyGoalTieAtDoor(t *testing.T) {
	b := model.NewBuilder("goal-tie")
	p := b.AddPartition("P", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	a := b.AddPartition("A", model.PublicPartition, geom.NewRect(0, 5, 10, 10, 0))
	bp := b.AddPartition("B", model.PublicPartition, geom.NewRect(0, 0, 10, 5, 0))
	u := b.AddDoor("u", model.PublicDoor, geom.Pt(10, 4, 0), nil)
	w := b.AddDoor("w", model.PublicDoor, geom.Pt(6, 5, 0), nil)
	v := b.AddDoor("v", model.PublicDoor, geom.Pt(10, 6, 0), nil)
	b.ConnectBi(u, bp, p)
	b.ConnectBi(w, a, bp)
	b.ConnectBi(v, a, p)
	b.SetDistance(bp, w, u, 3)
	g := itgraph.MustNew(b.MustBuild())
	q := Query{Source: geom.Pt(6, 9, 0), Target: geom.Pt(10, 4, 0), At: temporal.Clock(12, 0, 0)}
	for _, m := range manyMethods {
		e := NewEngine(g, Options{Method: m})
		if want, _, err := e.Route(q); err != nil || !reflect.DeepEqual(want.Doors, []model.DoorID{w, u}) {
			t.Fatalf("%v: Route = %v, %v; want the 7 m path through w and u", m, want, err)
		}
		assertSameAsSolo(t, m.String(), e, q, e.RouteMany(q.Source, []geom.Point{q.Target}, q.At, 0)[0])
	}
}
