package itgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// scanCheckpoints recomputes the checkpoint set from every door: the
// union of the ATI boundaries of the doors with temporal variation,
// the scan Venue.Checkpoints made before the venue counted them.
func scanCheckpoints(v *model.Venue) []temporal.TimeOfDay {
	var ts []temporal.TimeOfDay
	for _, d := range v.Doors() {
		if d.HasTemporalVariation() {
			ts = d.ATIs.Boundaries(ts)
		}
	}
	return temporal.NewCheckpointSet(ts).Times()
}

// mallVenue is the serving daemon's mall preset.
func mallVenue(t testing.TB) *model.Venue {
	t.Helper()
	m, err := synth.GenerateMall(synth.MallConfig{Seed: 42, ATI: synth.ATIConfig{CheckpointCount: 8, Seed: 43}})
	if err != nil {
		t.Fatal(err)
	}
	return m.Venue
}

// gridVenue is a rows x cols grid of rooms whose doors draw their
// schedules from a few hour-aligned intervals, so many doors share
// each boundary.
func gridVenue(t testing.TB, rng *rand.Rand, rows, cols int) *model.Venue {
	t.Helper()
	b := model.NewBuilder(fmt.Sprintf("grid-%dx%d", rows, cols))
	parts := make([]model.PartitionID, rows*cols)
	for i := range parts {
		r, c := float64(i/cols), float64(i%cols)
		parts[i] = b.AddPartition("", model.PublicPartition, geom.NewRect(10*c, 10*r, 10*c+10, 10*r+10, 0))
	}
	door := func(a, p model.PartitionID, pos geom.Point) {
		b.ConnectBi(b.AddDoor("", model.PublicDoor, pos, randomSchedule(rng)), a, p)
	}
	for i, p := range parts {
		r, c := float64(i/cols), float64(i%cols)
		if i%cols+1 < cols {
			door(p, parts[i+1], geom.Pt(10*c+10, 10*r+5, 0))
		}
		if i+cols < len(parts) {
			door(p, parts[i+cols], geom.Pt(10*c+5, 10*r+10, 0))
		}
	}
	return b.MustBuild()
}

// randomSchedule is always open (nil), always closed, or one or two
// intervals on whole hours, 0:00 and 24:00 included.
func randomSchedule(rng *rand.Rand) temporal.Schedule {
	hour := func(lo, hi int) temporal.TimeOfDay { return temporal.TimeOfDay(3600 * (lo + rng.Intn(hi-lo+1))) }
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return temporal.Schedule{}
	case 2:
		o := hour(0, 23)
		return temporal.MustSchedule(temporal.MustInterval(o, max(o+3600, hour(0, 24))))
	default:
		o1 := hour(0, 10)
		c1 := o1 + hour(1, 3)
		o2 := c1 + hour(1, 3)
		return temporal.MustSchedule(temporal.MustInterval(o1, c1), temporal.MustInterval(o2, o2+hour(1, 7)))
	}
}

// TestSwapCheckpointsMatchScan drives random update sequences through
// Graph.WithSchedules on the mall, the hospital and random grids, and
// holds the counted checkpoints to a scan of every door after the
// build and after every step. The steps give doors new random schedules or another door's
// (boundaries shared by several doors), restore originals, and drop
// every door off one checkpoint before restoring one of them (a count
// that falls to zero and comes back). The graph a step started from
// keeps its checkpoints.
func TestSwapCheckpointsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	venues := []*model.Venue{mallVenue(t), synth.Hospital()}
	for i := 0; i < 6; i++ {
		venues = append(venues, gridVenue(t, rng, 2+rng.Intn(5), 2+rng.Intn(5)))
	}
	for _, v := range venues {
		if got, want := v.Checkpoints().Times(), scanCheckpoints(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: built checkpoints %v, scan %v", v.Name, got, want)
		}
		g := MustNew(v)
		check := func(step string, prev, g *Graph, prevTimes []temporal.TimeOfDay) {
			t.Helper()
			want := scanCheckpoints(g.Venue())
			if got := g.Checkpoints().Times(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s: checkpoints %v, scan %v", v.Name, step, got, want)
			}
			if got := g.Venue().Checkpoints().Times(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s: venue checkpoints %v, scan %v", v.Name, step, got, want)
			}
			if got := prev.Venue().Checkpoints().Times(); !reflect.DeepEqual(got, prevTimes) {
				t.Fatalf("%s, %s: the previous venue's checkpoints became %v, were %v", v.Name, step, got, prevTimes)
			}
		}
		swap := func(step string, updates map[model.DoorID]temporal.Schedule) {
			t.Helper()
			prev, prevTimes := g, g.Venue().Checkpoints().Times()
			next, err := g.WithSchedules(updates)
			if err != nil {
				t.Fatalf("%s, %s: %v", v.Name, step, err)
			}
			g = next
			check(step, prev, g, prevTimes)
		}
		original := func(d model.DoorID) temporal.Schedule { return v.Door(d).ATIs }
		n := v.DoorCount()

		for step := 0; step < 60; step++ {
			updates := map[model.DoorID]temporal.Schedule{}
			for k := 1 + rng.Intn(6); k > 0; k-- {
				d := model.DoorID(rng.Intn(n))
				switch rng.Intn(3) {
				case 0:
					updates[d] = randomSchedule(rng)
				case 1:
					updates[d] = g.Venue().Door(model.DoorID(rng.Intn(n))).ATIs
				default:
					updates[d] = original(d)
				}
			}
			swap(fmt.Sprintf("random step %d", step), updates)
		}

		// Drop every door off the first checkpoint, then restore one.
		ts := g.Checkpoints().Times()
		if len(ts) == 0 {
			continue
		}
		at := ts[0]
		var holders []model.DoorID
		off := map[model.DoorID]temporal.Schedule{}
		for _, d := range g.Venue().Doors() {
			for _, b := range d.ATIs.Boundaries(nil) {
				if b == at {
					holders = append(holders, d.ID)
					off[d.ID] = nil
					break
				}
			}
		}
		kept := g.Venue().Door(holders[0]).ATIs
		swap("checkpoint dropped", off)
		if g.Checkpoints().Contains(at) {
			t.Fatalf("%s: checkpoint %v held by %d doors survived their reopening", v.Name, at, len(holders))
		}
		swap("checkpoint restored", map[model.DoorID]temporal.Schedule{holders[0]: kept})
		if !g.Checkpoints().Contains(at) {
			t.Fatalf("%s: checkpoint %v did not come back with door %d", v.Name, at, holders[0])
		}

		// Restoring every original schedule restores the original T.
		all := map[model.DoorID]temporal.Schedule{}
		for d := model.DoorID(0); int(d) < n; d++ {
			all[d] = original(d)
		}
		swap("originals restored", all)
		if got, want := g.Checkpoints().Times(), v.Checkpoints().Times(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored checkpoints %v, original %v", v.Name, got, want)
		}
	}
}

// TestSwapAllocations pins the cost of a six-door schedule swap on the
// mall: the new graph shares every door it does not update, so the
// swap allocates the door index, six doors and the counted boundaries,
// not a copy of all 1,152 doors. The venue swapped from keeps its
// schedules and checkpoints.
func TestSwapAllocations(t *testing.T) {
	const maxBytes = 16 << 10
	g := MustNew(mallVenue(t))
	v := g.Venue()
	shut, open := map[model.DoorID]temporal.Schedule{}, map[model.DoorID]temporal.Schedule{}
	for i := 0; len(shut) < 6; i += 97 {
		if d := model.DoorID(i % v.DoorCount()); v.Door(d).ATIs.AlwaysOpenAllDay() {
			shut[d], open[d] = temporal.Schedule{}, nil
		}
	}
	schedules := make([]string, v.DoorCount())
	for i, d := range v.Doors() {
		schedules[i] = d.ATIs.String()
	}
	times := append([]temporal.TimeOfDay(nil), v.Checkpoints().Times()...)

	const swaps = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cur := g
	for i := 0; i < swaps; i++ {
		updates := shut
		if i%2 == 1 {
			updates = open
		}
		next, err := cur.WithSchedules(updates)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	runtime.ReadMemStats(&after)
	perSwap := (after.TotalAlloc - before.TotalAlloc) / swaps
	t.Logf("six-door swap on the mall: %d bytes, %d allocations", perSwap, (after.Mallocs-before.Mallocs)/swaps)
	if perSwap > maxBytes {
		t.Errorf("six-door swap allocates %d bytes, want at most %d", perSwap, maxBytes)
	}
	for i, d := range v.Doors() {
		if got := d.ATIs.String(); got != schedules[i] {
			t.Fatalf("door %s: schedule %s after the swaps, was %s", d.Name, got, schedules[i])
		}
	}
	if got := v.Checkpoints().Times(); !reflect.DeepEqual(got, times) {
		t.Fatalf("checkpoints %v after the swaps, were %v", got, times)
	}
}
