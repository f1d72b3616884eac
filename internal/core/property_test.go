package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// randomVenue builds a rows x cols grid of rooms with randomised door
// schedules, privacy and directionality — the adversarial input for the
// cross-method equivalence and validity properties.
func randomVenue(t testing.TB, rng *rand.Rand, rows, cols int) *model.Venue {
	t.Helper()
	b := model.NewBuilder(fmt.Sprintf("rand-%dx%d", rows, cols))
	const cell = 10.0
	parts := make([][]model.PartitionID, rows)
	for r := 0; r < rows; r++ {
		parts[r] = make([]model.PartitionID, cols)
		for c := 0; c < cols; c++ {
			kind := model.PublicPartition
			// Keep the corners public so queries have endpoints; sprinkle
			// private rooms elsewhere.
			corner := (r == 0 || r == rows-1) && (c == 0 || c == cols-1)
			if !corner && rng.Float64() < 0.15 {
				kind = model.PrivatePartition
			}
			parts[r][c] = b.AddPartition(fmt.Sprintf("r%dc%d", r, c), kind,
				geom.NewRect(float64(c)*cell, float64(r)*cell, float64(c+1)*cell, float64(r+1)*cell, 0))
		}
	}
	randSched := func() temporal.Schedule {
		switch rng.Intn(4) {
		case 0:
			return nil // always open
		case 1:
			o := temporal.TimeOfDay(rng.Intn(12) * 3600)
			return temporal.MustSchedule(temporal.MustInterval(o, o+temporal.TimeOfDay(3600*(1+rng.Intn(12)))))
		default:
			o1 := temporal.TimeOfDay(rng.Intn(8) * 3600)
			c1 := o1 + temporal.TimeOfDay(3600+rng.Intn(4*3600))
			o2 := c1 + temporal.TimeOfDay(1800+rng.Intn(2*3600))
			c2 := o2 + temporal.TimeOfDay(3600+rng.Intn(6*3600))
			if c2 > temporal.DaySeconds {
				c2 = temporal.DaySeconds
			}
			if o2 >= c2 {
				return temporal.MustSchedule(temporal.MustInterval(o1, c1))
			}
			return temporal.MustSchedule(temporal.MustInterval(o1, c1), temporal.MustInterval(o2, c2))
		}
	}
	addDoor := func(a, bID model.PartitionID, pos geom.Point) {
		if rng.Float64() < 0.1 {
			return // missing wall opening
		}
		d := b.AddDoor("", model.PublicDoor, pos, randSched())
		if rng.Float64() < 0.1 {
			b.ConnectOneWay(d, a, bID)
		} else {
			b.ConnectBi(d, a, bID)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				addDoor(parts[r][c], parts[r][c+1],
					geom.Pt(float64(c+1)*cell, float64(r)*cell+cell/2, 0))
			}
			if r+1 < rows {
				addDoor(parts[r][c], parts[r+1][c],
					geom.Pt(float64(c)*cell+cell/2, float64(r+1)*cell, 0))
			}
		}
	}
	return b.MustBuild()
}

// TestCrossMethodEquivalenceRandom is the core property: ITG/S, ITG/A
// and both heap-initialisation variants agree on found/not-found and on
// path length for random venues, times and endpoints; every found path
// validates.
func TestCrossMethodEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		rows, cols := 2+rng.Intn(4), 2+rng.Intn(4)
		v := randomVenue(t, rng, rows, cols)
		g := itgraph.MustNew(v)
		engines := []*Engine{
			NewEngine(g, Options{Method: MethodSyn}),
			NewEngine(g, Options{Method: MethodAsyn}),
			NewEngine(g, Options{Method: MethodSyn, EagerHeapInit: true}),
			NewEngine(g, Options{Method: MethodAsyn, EagerHeapInit: true}),
		}
		for probe := 0; probe < 10; probe++ {
			src := geom.Pt(rng.Float64()*float64(cols)*10, rng.Float64()*float64(rows)*10, 0)
			tgt := geom.Pt(rng.Float64()*float64(cols)*10, rng.Float64()*float64(rows)*10, 0)
			q := Query{Source: src, Target: tgt, At: temporal.TimeOfDay(rng.Float64() * 86400)}
			type outcome struct {
				length float64
				found  bool
			}
			var first outcome
			for i, e := range engines {
				p, _, err := e.Route(q)
				var cur outcome
				switch {
				case errors.Is(err, ErrNoRoute):
					cur = outcome{}
				case err != nil:
					t.Fatalf("trial %d engine %d: %v", trial, i, err)
				default:
					cur = outcome{length: p.Length, found: true}
					if verr := p.Validate(g, q); verr != nil {
						t.Fatalf("trial %d engine %d (%s): invalid path: %v",
							trial, i, e.MethodName(), verr)
					}
				}
				if i == 0 {
					first = cur
					continue
				}
				if cur.found != first.found {
					t.Fatalf("trial %d query %v: engine %d found=%v, engine 0 found=%v",
						trial, q.At, i, cur.found, first.found)
				}
				if cur.found && math.Abs(cur.length-first.length) > 1e-9 {
					t.Fatalf("trial %d: engine %d length %v vs engine 0 %v",
						trial, i, cur.length, first.length)
				}
			}
		}
	}
}

// TestEngineNeverBeatsOracleRandom: on random small venues the engine's
// answer is never shorter than the exhaustive optimum, equals it when
// every door is open, and the engine never finds a route the oracle
// cannot.
func TestEngineNeverBeatsOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		v := randomVenue(t, rng, 3, 3)
		g := itgraph.MustNew(v)
		e := NewEngine(g, Options{Method: MethodSyn})
		for probe := 0; probe < 6; probe++ {
			q := Query{
				Source: geom.Pt(rng.Float64()*30, rng.Float64()*30, 0),
				Target: geom.Pt(rng.Float64()*30, rng.Float64()*30, 0),
				At:     temporal.TimeOfDay(rng.Float64() * 86400),
			}
			or := OracleShortest(g, q)
			p, _, err := e.Route(q)
			if err != nil {
				if !errors.Is(err, ErrNoRoute) {
					t.Fatal(err)
				}
				continue // engine may miss non-FIFO detours; oracle null ⇒ engine null is checked below
			}
			if !or.Found {
				t.Fatalf("trial %d: engine found a %v m path the oracle missed", trial, p.Length)
			}
			if p.Length < or.Length-1e-9 {
				t.Fatalf("trial %d: engine %v beat oracle %v", trial, p.Length, or.Length)
			}
		}
	}
}

// TestEngineMatchesOracleAllOpen: with every door always open the
// greedy label-setting search is exact, so engine == oracle.
func TestEngineMatchesOracleAllOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		b := model.NewBuilder("open-grid")
		rows, cols := 3, 4
		const cell = 10.0
		parts := make([][]model.PartitionID, rows)
		for r := 0; r < rows; r++ {
			parts[r] = make([]model.PartitionID, cols)
			for c := 0; c < cols; c++ {
				parts[r][c] = b.AddPartition(fmt.Sprintf("p%d-%d", r, c), model.PublicPartition,
					geom.NewRect(float64(c)*cell, float64(r)*cell, float64(c+1)*cell, float64(r+1)*cell, 0))
			}
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols && rng.Float64() < 0.9 {
					d := b.AddDoor("", model.PublicDoor, geom.Pt(float64(c+1)*cell, float64(r)*cell+rng.Float64()*cell, 0), nil)
					b.ConnectBi(d, parts[r][c], parts[r][c+1])
				}
				if r+1 < rows && rng.Float64() < 0.9 {
					d := b.AddDoor("", model.PublicDoor, geom.Pt(float64(c)*cell+rng.Float64()*cell, float64(r+1)*cell, 0), nil)
					b.ConnectBi(d, parts[r][c], parts[r+1][c])
				}
			}
		}
		v, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := itgraph.MustNew(v)
		e := NewEngine(g, Options{Method: MethodAsyn})
		for probe := 0; probe < 8; probe++ {
			q := Query{
				Source: geom.Pt(rng.Float64()*40, rng.Float64()*30, 0),
				Target: geom.Pt(rng.Float64()*40, rng.Float64()*30, 0),
				At:     temporal.Clock(12, 0, 0),
			}
			or := OracleShortest(g, q)
			p, _, err := e.Route(q)
			if or.Found != (err == nil) {
				t.Fatalf("trial %d: oracle found=%v, engine err=%v", trial, or.Found, err)
			}
			if err == nil && math.Abs(p.Length-or.Length) > 1e-9 {
				t.Fatalf("trial %d: engine %v != oracle %v", trial, p.Length, or.Length)
			}
		}
	}
}

// TestWaitingNeverArrivesLater: on random venues, whenever the
// no-waiting engine finds a path, the waiting router must find one too
// and arrive no later. The property holds for Route answers arriving
// before midnight: the waiting router answers within the day, so a
// departure in the day's last seconds whose walk ends at or after
// 24:00 has no waiting answer. This fixed seed never departs there.
func TestWaitingNeverArrivesLater(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 30; trial++ {
		v := randomVenue(t, rng, 3, 3)
		g := itgraph.MustNew(v)
		e := NewEngine(g, Options{Method: MethodSyn})
		w := NewWaitingRouter(g)
		for probe := 0; probe < 6; probe++ {
			q := Query{
				Source: geom.Pt(rng.Float64()*30, rng.Float64()*30, 0),
				Target: geom.Pt(rng.Float64()*30, rng.Float64()*30, 0),
				At:     temporal.TimeOfDay(rng.Float64() * 86400),
			}
			p, _, err := e.Route(q)
			if err != nil {
				continue
			}
			wp, werr := w.Route(q)
			if werr != nil {
				t.Fatalf("trial %d: no-waiting found a path but waiting router failed: %v", trial, werr)
			}
			if wp.ArrivalAtTgt > p.ArrivalAtTgt+1e-6 {
				t.Fatalf("trial %d: waiting arrives %v after no-waiting %v",
					trial, wp.ArrivalAtTgt, p.ArrivalAtTgt)
			}
			if verr := wp.Validate(g, q); verr != nil {
				t.Fatalf("trial %d: waiting path invalid: %v", trial, verr)
			}
		}
	}
}

// TestConcurrentEnginesShareGraph: one graph, many goroutines with
// their own engines; snapshots are built lazily under a mutex. Run with
// -race.
func TestConcurrentEnginesShareGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	v := randomVenue(t, rng, 4, 4)
	g := itgraph.MustNew(v)
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		method := MethodSyn
		if w%2 == 1 {
			method = MethodAsyn
		}
		seed := int64(w)
		go func() {
			defer wg.Done()
			local := rand.New(rand.NewSource(seed))
			e := NewEngine(g, Options{Method: method})
			for i := 0; i < 50; i++ {
				q := Query{
					Source: geom.Pt(local.Float64()*40, local.Float64()*40, 0),
					Target: geom.Pt(local.Float64()*40, local.Float64()*40, 0),
					At:     temporal.TimeOfDay(local.Float64() * 86400),
				}
				p, _, err := e.RouteOrNil(q)
				if err != nil {
					errc <- err
					return
				}
				if p != nil {
					if verr := p.Validate(g, q); verr != nil {
						errc <- verr
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
