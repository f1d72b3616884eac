package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	indoorpath "indoorpath"
	"indoorpath/internal/core"
	"indoorpath/internal/model"
	"indoorpath/internal/server"
	"indoorpath/internal/temporal"
)

// The venue and serving configuration every workload runs against.
const (
	venueID = "mall"
	// dayOpen..dayClose is the mall's trading day: scatter departures
	// and the kiosk clock stay inside it.
	dayOpen  = temporal.TimeOfDay(7 * 3600)
	dayClose = temporal.TimeOfDay(22 * 3600)
)

// daemonFlags is the serving configuration itspqd runs with: every
// serving layer on, as the replay harness self-hosts it.
var daemonFlags = []string{"-preset", venueID, "-coalesce", "-shared-batch", "-window-cache", "-skeleton-cache"}

// poolOptions and serverOptions are the same configuration for the
// in-process stacks (set-up timing and the traced run).
var (
	poolOptions   = indoorpath.PoolOptions{WindowCache: true, SkeletonCache: true, SharedBatch: true}
	serverOptions = indoorpath.ServerOptions{Coalesce: true}
)

// Workload shape constants. The reasons for each value are in README.md.
const (
	crowdPairs       = 8            // hot partition pairs of crowd and flips
	crowdMinM        = 300          // hot pairs are this many metres apart or more
	crowdMaxM        = 700          // and this many or fewer
	flipDetour       = 3.0          // closing the flip doors lengthens no hot path more than this
	flipEvery        = 200          // flips: every flipEvery-th request is a schedule update
	probeWarmUpdates = 4            // untimed updates that open the post-phase probe
	probeUpdates     = 80           // updates timed after the read phase: 40 close-reopen pairs
	kiosks           = 4            // kiosk: fixed kiosk points, one method each
	kioskShops       = 32           // kiosk: size of each kiosk's shop directory
	kioskBatch       = 16           // kiosk: destinations per batch request
	kioskStep        = 540          // kiosk: seconds the kiosk clock advances per batch
	kioskLayoutSeed  = 0x6b696f736b // kiosk: places the kiosks and their directories ("kiosk")
)

// kioskMethods assigns each kiosk its engine method.
var kioskMethods = [kiosks]core.Method{core.MethodAsyn, core.MethodAsyn, core.MethodSyn, core.MethodStatic}

// workloadNames lists the workloads in the order the README defines them.
var workloadNames = []string{"scatter", "crowd", "kiosk", "flips"}

type reqKind uint8

const (
	kindRoute  reqKind = iota // POST /route, one query
	kindBatch                 // POST /route:batch, kioskBatch queries
	kindUpdate                // PUT /schedules toggling the flip doors
)

// request is one HTTP call of a workload, its body built before timing.
type request struct {
	kind    reqKind
	method  core.Method
	queries []core.Query
	// closeDoors: an update closes the flip doors (true) or reopens
	// them (false). Updates alternate, starting with a close.
	closeDoors bool
	body       []byte
	// id is the same for requests with identical bodies.
	id int
}

// answers is the number of route answers the request asks for.
func (r *request) answers() int { return len(r.queries) }

// workload is one generated input stream: a warm-up prefix that is
// sent untimed, the measured stream that follows it, and the updates
// that close and reopen the flip doors.
type workload struct {
	name string
	warm []request
	// stream yields the measured requests in order, on demand: a run
	// sends as many as its closed loop reaches.
	stream *stream
	// flipDoors are the doors on the crowd's hot paths that schedule
	// updates close and reopen; every workload derives them from its
	// seed so the post-phase update probe is the same everywhere.
	flipDoors []string
	// updates holds the close and reopen updates; probe updates after
	// the read phase alternate over it.
	updates [2]request
}

// stream renders a workload's requests one at a time, in order: request
// i is a pure function of (workload, seed, i).
type stream struct {
	next func(i int) request
	i    int
	ids  map[string]int // request id by body
}

func (s *stream) take() request {
	r := s.next(s.i)
	s.i++
	if r.body == nil {
		r.body = routeBody(&r)
	}
	r.id = s.id(r.body)
	return r
}

func (s *stream) id(body []byte) int {
	id, ok := s.ids[string(body)]
	if !ok {
		id = len(s.ids)
		s.ids[string(body)] = id
	}
	return id
}

// measured returns the next n requests of the measured stream.
func (w *workload) measured(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = w.stream.take()
	}
	return out
}

// venueInfo is what generation needs from the preset, built once.
type venueInfo struct {
	v      *model.Venue
	g      *indoorpath.Graph
	indoor []model.PartitionID   // indoor partitions with a non-empty rectangle
	shops  []model.PartitionID   // public shops
	halls  [][]model.PartitionID // hallway intersections, per floor
}

func newVenueInfo() (*venueInfo, error) {
	v, err := indoorpath.PresetVenue(venueID)
	if err != nil {
		return nil, err
	}
	g, err := indoorpath.NewGraph(v)
	if err != nil {
		return nil, err
	}
	vi := &venueInfo{v: v, g: g}
	for _, p := range v.Partitions() {
		// The outdoors partition has an empty rectangle at (0, 0, F0):
		// a point sampled there is in no partition and answers 422.
		if p.Kind == model.OutdoorPartition || p.Rect.Area() <= 0 {
			continue
		}
		vi.indoor = append(vi.indoor, p.ID)
		switch p.Kind {
		case model.PublicPartition:
			vi.shops = append(vi.shops, p.ID)
		case model.HallwayPartition:
			if strings.Contains(p.Name, "-x-") {
				f := p.Rect.Floor
				for len(vi.halls) <= f {
					vi.halls = append(vi.halls, nil)
				}
				vi.halls[f] = append(vi.halls[f], p.ID)
			}
		}
	}
	return vi, nil
}

// interior samples a point strictly inside a partition's rectangle
// (10% margin), so point location is never ambiguous.
func (vi *venueInfo) interior(rng *rand.Rand, p model.PartitionID) indoorpath.Point {
	r := vi.v.Partition(p).Rect
	m := math.Min(r.Width(), r.Height()) * 0.1
	return indoorpath.Pt(r.MinX+m+rng.Float64()*(r.Width()-2*m), r.MinY+m+rng.Float64()*(r.Height()-2*m), r.Floor)
}

// crowdPlan is the seed's hot set: partition pairs, their departure
// slot and the doors on their paths that flips toggles.
type crowdPlan struct {
	pairs      [][2]model.PartitionID
	slotOpen   temporal.TimeOfDay
	departSpan int // departures lie in [slotOpen, slotOpen+departSpan)
	flipDoors  []string
}

// planCrowd picks crowdPairs routable shop pairs and the longest
// checkpoint slot of the trading day, then the flip doors. Departures
// stop early enough that every walk, detours included, ends inside the
// slot, so skeleton compositions certify.
func (vi *venueInfo) planCrowd(seed int64) (*crowdPlan, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x63726f7764)) // "crowd"
	cps := vi.g.Checkpoints()
	best, bestLen := -1, temporal.TimeOfDay(0)
	for s := 0; s < cps.SlotCount(); s++ {
		open, end := max(cps.SlotStart(s), dayOpen), min(cps.SlotEnd(s), dayClose)
		if end-open > bestLen {
			best, bestLen = s, end-open
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("no checkpoint slot inside the trading day")
	}
	cp := &crowdPlan{slotOpen: max(cps.SlotStart(best), dayOpen)}
	slotClose := min(cps.SlotEnd(best), dayClose)
	e := core.NewEngine(vi.g, core.Options{Method: core.MethodAsyn})
	var paths []*core.Path
	for attempts := 0; len(cp.pairs) < crowdPairs; attempts++ {
		if attempts > 20000 {
			return nil, fmt.Errorf("could not find %d routable shop pairs", crowdPairs)
		}
		a, b := vi.shops[rng.Intn(len(vi.shops))], vi.shops[rng.Intn(len(vi.shops))]
		if a == b {
			continue
		}
		path, _, err := e.Route(cp.query(vi, [2]model.PartitionID{a, b}))
		// A band of walk lengths keeps the hot set's search and family
		// costs alike from seed to seed.
		if err != nil || len(path.Doors) < 3 || path.Length < crowdMinM || path.Length > crowdMaxM {
			continue
		}
		cp.pairs = append(cp.pairs, [2]model.PartitionID{a, b})
		paths = append(paths, path)
	}
	if err := cp.pickFlipDoors(vi, paths); err != nil {
		return nil, err
	}
	walk := int((crowdMaxM*flipDetour + 200) / core.WalkingSpeedMPS)
	cp.departSpan = int(slotClose-cp.slotOpen) - walk - 300
	if cp.departSpan < 600 {
		return nil, fmt.Errorf("hot slot too short for the crowd's walks")
	}
	return cp, nil
}

// query is the hot pair's query between partition centres at the slot's
// opening.
func (cp *crowdPlan) query(vi *venueInfo, pr [2]model.PartitionID) core.Query {
	return core.Query{Source: vi.v.Partition(pr[0]).Rect.Center(), Target: vi.v.Partition(pr[1]).Rect.Center(), At: cp.slotOpen}
}

// pickFlipDoors takes, for each hot path, the always-open door whose
// closure (with the doors taken before it) lengthens the hot paths the
// least, and keeps it if every hot pair stays routable within
// flipDetour times its open length: closing the doors forces detours,
// never a disconnected crowd, whatever the seed.
func (cp *crowdPlan) pickFlipDoors(vi *venueInfo, paths []*core.Path) error {
	closed := map[model.DoorID]temporal.Schedule{}
	for _, path := range paths {
		bestDoor, bestRatio := model.DoorID(-1), flipDetour
		for _, id := range path.Doors {
			if _, dup := closed[id]; dup || !vi.v.Door(id).ATIs.AlwaysOpenAllDay() {
				continue
			}
			closed[id] = temporal.Schedule{}
			if r := cp.detour(vi, closed, paths); r <= bestRatio {
				bestDoor, bestRatio = id, r
			}
			delete(closed, id)
		}
		if bestDoor >= 0 {
			closed[bestDoor] = temporal.Schedule{}
			cp.flipDoors = append(cp.flipDoors, vi.v.Door(bestDoor).Name)
		}
	}
	if len(cp.flipDoors) == 0 {
		return fmt.Errorf("no always-open door on the hot paths can close without cutting off a pair")
	}
	return nil
}

// detour is the largest ratio of a hot pair's length with the given
// doors closed to its open length; +Inf when a pair is cut off.
func (cp *crowdPlan) detour(vi *venueInfo, closed map[model.DoorID]temporal.Schedule, paths []*core.Path) float64 {
	v, err := vi.v.WithSchedules(closed)
	if err != nil {
		return math.Inf(1)
	}
	g, err := indoorpath.NewGraph(v)
	if err != nil {
		return math.Inf(1)
	}
	e := core.NewEngine(g, core.Options{Method: core.MethodAsyn})
	worst := 1.0
	for i, pr := range cp.pairs {
		path, _, err := e.Route(cp.query(vi, pr))
		if err != nil {
			return math.Inf(1)
		}
		worst = math.Max(worst, path.Length/paths[i].Length)
	}
	return worst
}

// generate builds a workload's warm-up and its measured stream: a pure
// function of (name, seed).
func (vi *venueInfo) generate(name string, seed int64) (*workload, error) {
	cp, err := vi.planCrowd(seed)
	if err != nil {
		return nil, err
	}
	w := &workload{name: name, flipDoors: cp.flipDoors}
	w.updates[0] = vi.update(cp.flipDoors, true)
	w.updates[1] = vi.update(cp.flipDoors, false)
	rng := rand.New(rand.NewSource(seed))
	var next func(i int) request
	var warm int
	switch name {
	case "scatter":
		next, warm = vi.scatter(rng), 120
	case "crowd":
		next, warm = vi.crowd(rng, cp), 400
	case "kiosk":
		// Two passes of every kiosk through the day fill the caches.
		next, warm = vi.kiosk(rng), 2*kiosks*int(dayClose-dayOpen)/kioskStep
	case "flips":
		warm = 400
		crowd := vi.crowd(rng, cp)
		reads := 0
		next = func(i int) request {
			if i >= warm && (i-warm)%flipEvery == flipEvery-1 {
				return w.updates[((i-warm)/flipEvery)%2]
			}
			reads++
			return crowd(reads - 1)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.stream = &stream{next: next, ids: map[string]int{}}
	for u := range w.updates {
		w.updates[u].id = w.stream.id(w.updates[u].body)
	}
	for i := 0; i < warm; i++ {
		w.warm = append(w.warm, w.stream.take())
	}
	return w, nil
}

// scatter: fresh random OD pairs over the whole venue, departures over
// the trading day, methods asyn : syn : static = 2 : 1 : 1. Sources and
// targets each run through a fresh random permutation of the indoor
// partitions, so every partition is a source once per cycle: a family
// build costs one search per entry door of the source, and a run's
// cost must not hinge on how many many-door hallway cells a seed draws.
func (vi *venueInfo) scatter(rng *rand.Rand) func(int) request {
	methods := [4]core.Method{core.MethodAsyn, core.MethodAsyn, core.MethodSyn, core.MethodStatic}
	var srcs, tgts []int
	return func(i int) request {
		n := len(vi.indoor)
		if i%n == 0 {
			srcs, tgts = rng.Perm(n), rng.Perm(n)
		}
		src, tgt := vi.indoor[srcs[i%n]], vi.indoor[tgts[i%n]]
		q := core.Query{
			Source: vi.interior(rng, src),
			Target: vi.interior(rng, tgt),
			At:     dayOpen + temporal.TimeOfDay(rng.Intn(int(dayClose-dayOpen))),
		}
		return request{kind: kindRoute, method: methods[rng.Intn(4)], queries: []core.Query{q}}
	}
}

// crowd: the hot pairs with every endpoint jittered, departures in the
// hot slot, asyn.
func (vi *venueInfo) crowd(rng *rand.Rand, cp *crowdPlan) func(int) request {
	return func(int) request {
		pr := cp.pairs[rng.Intn(len(cp.pairs))]
		q := core.Query{
			Source: vi.interior(rng, pr[0]),
			Target: vi.interior(rng, pr[1]),
			At:     cp.slotOpen + temporal.TimeOfDay(rng.Intn(cp.departSpan)),
		}
		return request{kind: kindRoute, method: core.MethodAsyn, queries: []core.Query{q}}
	}
}

// kiosk: kiosks at fixed points take turns. Each request asks for
// kioskBatch destinations from the kiosk's directory of shops on its
// own floor, with the kiosk's method and its clock, which steps
// kioskStep seconds per batch through the trading day and wraps. Each
// kiosk asks the same destinations at the same instant every day, so the
// requests repeat and the oracle solves each distinct query once.
//
// The kiosks and their directories are installations: fixed for every
// seed, one per floor at a hallway intersection. The seed draws the
// destinations asked at each instant and where each kiosk's day starts.
func (vi *venueInfo) kiosk(rng *rand.Rand) func(int) request {
	layout := rand.New(rand.NewSource(kioskLayoutSeed))
	instants := int(dayClose-dayOpen) / kioskStep
	var reqs [kiosks][]request
	var clock [kiosks]int
	for k := range reqs {
		at := vi.interior(layout, vi.halls[k][layout.Intn(len(vi.halls[k]))])
		var floor []model.PartitionID
		for _, p := range vi.shops {
			if vi.v.Partition(p).Rect.Floor == at.Floor {
				floor = append(floor, p)
			}
		}
		var dir []indoorpath.Point
		for _, i := range layout.Perm(len(floor))[:kioskShops] {
			dir = append(dir, vi.interior(layout, floor[i]))
		}
		reqs[k] = make([]request, instants)
		for t := range reqs[k] {
			qs := make([]core.Query, kioskBatch)
			for j := range qs {
				qs[j] = core.Query{Source: at, Target: dir[rng.Intn(kioskShops)], At: dayOpen + temporal.TimeOfDay(t*kioskStep)}
			}
			reqs[k][t] = request{kind: kindBatch, method: kioskMethods[k], queries: qs}
			reqs[k][t].body = routeBody(&reqs[k][t])
		}
		clock[k] = rng.Intn(instants)
	}
	return func(i int) request {
		k := i % kiosks
		r := reqs[k][clock[k]]
		clock[k] = (clock[k] + 1) % instants
		return r
	}
}

// update builds the schedule update that closes (empty ATI list) or
// reopens (null: always open) the flip doors.
func (vi *venueInfo) update(doors []string, closeDoors bool) request {
	req := server.SchedulesRequest{Updates: map[string][]string{}}
	for _, d := range doors {
		if closeDoors {
			req.Updates[d] = []string{}
		} else {
			req.Updates[d] = nil
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return request{kind: kindUpdate, closeDoors: closeDoors, body: body}
}

// routeBody renders a route or batch request body on the wire types.
func routeBody(r *request) []byte {
	doc := func(q core.Query) server.RouteRequest {
		return server.RouteRequest{
			From: &server.PointDoc{X: q.Source.X, Y: q.Source.Y, Floor: q.Source.Floor},
			To:   &server.PointDoc{X: q.Target.X, Y: q.Target.Y, Floor: q.Target.Floor},
			At:   clockString(q.At),
		}
	}
	var v any
	if r.kind == kindRoute {
		d := doc(r.queries[0])
		d.Method = methodName(r.method)
		v = d
	} else {
		b := server.BatchRequest{Method: methodName(r.method), Queries: make([]server.RouteRequest, len(r.queries))}
		for i, q := range r.queries {
			b.Queries[i] = doc(q)
		}
		v = b
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return body
}

// methodName is a method's wire name.
func methodName(m core.Method) string {
	switch m {
	case core.MethodSyn:
		return "syn"
	case core.MethodStatic:
		return "static"
	}
	return "asyn"
}

// clockString renders a whole-second time of day as "H:MM:SS".
func clockString(t temporal.TimeOfDay) string {
	s := int(t)
	return fmt.Sprintf("%d:%02d:%02d", s/3600, (s/60)%60, s%60)
}

// fingerprint digests a request list: two runs that print the same
// fingerprint sent identical inputs.
func fingerprint(reqs []request) string {
	h := sha256.New()
	for i := range reqs {
		h.Write(reqs[i].body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
