package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"

	"indoorpath/internal/core"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/server"
	"indoorpath/internal/temporal"
)

// tolerance bounds float differences between a served and an oracle
// answer. Engine arithmetic is deterministic and JSON round-trips
// float64 exactly, so matches are normally exact.
const tolerance = 1e-6

// answer is one route answer in comparable form.
type answer struct {
	found  bool
	failed string // engine or wire error; empty on a regular answer
	length float64
	arrive float64
	doors  []string
	times  []float64 // arrival at each door
	hit    string
}

// verdict tallies one run's verification.
type verdict struct {
	requests int // requests checked
	failed   int // requests with a transport error, non-2xx or wrong answer
	answers  int // answers that matched the oracle
	ties     int // answers accepted under the exact-tie exception
	wrong    int // answers that matched no legal oracle state
	hits     map[string]int
	samples  []string
}

func (v *verdict) fail(format string, a ...any) {
	if len(v.samples) < 5 {
		v.samples = append(v.samples, fmt.Sprintf(format, a...))
	}
}

// oracle answers queries with sequential engines over the preset in
// each schedule state: state 0 is the preset, state 1 has the flip
// doors closed. Updates alternate, so after k updates state k%2 is live.
type oracle struct {
	graphs [2]*itgraph.Graph
}

func newOracle(vi *venueInfo, flipDoors []string) (*oracle, error) {
	closed := map[model.DoorID]temporal.Schedule{}
	for _, name := range flipDoors {
		id, ok := vi.v.DoorByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown flip door %q", name)
		}
		closed[id] = temporal.Schedule{}
	}
	v1, err := vi.v.WithSchedules(closed)
	if err != nil {
		return nil, err
	}
	g1, err := itgraph.New(v1)
	if err != nil {
		return nil, err
	}
	return &oracle{graphs: [2]*itgraph.Graph{vi.g, g1}}, nil
}

type oracleKey struct {
	state  int
	method core.Method
	q      core.Query
}

// solve computes the oracle answer of every key on workers goroutines,
// each with its own engines (engines are goroutine-confined).
func (o *oracle) solve(keys []oracleKey, workers int) map[oracleKey]answer {
	out := make(map[oracleKey]answer, len(keys))
	res := make([]answer, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			engines := map[[2]int]*core.Engine{}
			for i := w; i < len(keys); i += workers {
				k := keys[i]
				e := engines[[2]int{k.state, int(k.method)}]
				if e == nil {
					e = core.NewEngine(o.graphs[k.state], core.Options{Method: k.method})
					engines[[2]int{k.state, int(k.method)}] = e
				}
				res[i] = engineAnswer(o.graphs[k.state].Venue(), e, k.q)
			}
		}(w)
	}
	wg.Wait()
	for i, k := range keys {
		out[k] = res[i]
	}
	return out
}

// engineAnswer runs one sequential search.
func engineAnswer(v *model.Venue, e *core.Engine, q core.Query) answer {
	path, _, err := e.Route(q)
	switch {
	case errors.Is(err, core.ErrNoRoute):
		return answer{}
	case err != nil:
		return answer{failed: err.Error()}
	}
	a := answer{found: true, length: path.Length, arrive: float64(path.ArrivalAtTgt)}
	for i, d := range path.Doors {
		a.doors = append(a.doors, v.Door(d).Name)
		a.times = append(a.times, float64(path.Arrivals[i]))
	}
	return a
}

// parseAnswers extracts a request's answers from its response body.
func parseAnswers(r *request, s *sent, body []byte) ([]answer, error) {
	if s.status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s %s", s.status, s.errText, truncate(body))
	}
	var docs []server.RouteResponse
	switch r.kind {
	case kindRoute:
		var doc server.RouteResponse
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, err
		}
		docs = []server.RouteResponse{doc}
	case kindBatch:
		var doc server.BatchResponse
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, err
		}
		if len(doc.Results) != len(r.queries) {
			return nil, fmt.Errorf("%d results for %d queries", len(doc.Results), len(r.queries))
		}
		docs = doc.Results
	default:
		var doc server.SchedulesResponse
		return nil, json.Unmarshal(body, &doc)
	}
	out := make([]answer, len(docs))
	for i, d := range docs {
		a := answer{found: d.Found, hit: d.Hit}
		if d.Error != nil {
			a.failed = d.Error.Code + ": " + d.Error.Message
		}
		if d.Path != nil {
			a.length, a.arrive = d.Path.LengthM, d.Path.ArriveSec
			for _, st := range d.Path.Doors {
				a.doors = append(a.doors, st.Door)
				a.times = append(a.times, st.ArriveSec)
			}
		}
		out[i] = a
	}
	return out, nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// match classifies a served answer against an oracle answer: 2 = the
// same path, 1 = a different path of equal length and arrival that is
// valid under the state (the documented exact-tie exception), 0 = wrong.
func match(want, got answer, v *model.Venue, method core.Method) int {
	if want.failed != "" || got.failed != "" || want.found != got.found {
		return 0
	}
	if !want.found {
		return 2
	}
	if math.Abs(want.length-got.length) > tolerance || math.Abs(want.arrive-got.arrive) > tolerance {
		return 0
	}
	if equalStrings(want.doors, got.doors) {
		return 2
	}
	if method == core.MethodStatic {
		return 1 // the static method ignores door schedules
	}
	for i, name := range got.doors {
		id, ok := v.DoorByName(name)
		if !ok || !v.Door(id).OpenAt(temporal.TimeOfDay(got.times[i])) {
			return 0
		}
	}
	return 1
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verify checks every answer of the given phases against the oracle
// and returns one verdict per phase. A read is legal under any schedule
// state live between its send and its response: states lo..hi, where
// state k means k updates applied. Records with the same request, the
// same response body and the same legal states are checked once.
func verify(o *oracle, store *bodyStore, reqs [][]request, recs [][]sent, workers int) []*verdict {
	type recKey struct{ req, resp, status, lo, hi int }
	type rep struct {
		phase, idx int
		bad        bool
		answers    int
		ties       int
		hits       []string
	}
	var reps []*rep
	uniq := map[recKey]*rep{}
	repOf := make([][]*rep, len(recs))
	for p := range recs {
		repOf[p] = make([]*rep, len(recs[p]))
		for i := range recs[p] {
			s := &recs[p][i]
			k := recKey{reqs[p][i].id, s.resp, s.status, s.lo, s.hi}
			r := uniq[k]
			if r == nil {
				r = &rep{phase: p, idx: i}
				uniq[k] = r
				reps = append(reps, r)
			}
			repOf[p][i] = r
		}
	}
	out := make([]*verdict, len(recs))
	for p := range recs {
		out[p] = &verdict{requests: len(recs[p]), hits: map[string]int{}}
	}
	type check struct {
		r   *rep
		ans int
		got answer
	}
	var checks []check
	for _, r := range reps {
		s := &recs[r.phase][r.idx]
		as, err := parseAnswers(&reqs[r.phase][r.idx], s, store.body(s.resp))
		if err != nil {
			r.bad = true
			out[r.phase].fail("request %d: %v", r.idx, err)
			continue
		}
		for j, a := range as {
			checks = append(checks, check{r, j, a})
		}
	}
	// Round one solves every read under the state live when it was
	// sent; round two solves the other state for reads that raced an
	// update and did not match the first.
	todo := checks
	for round := 0; round < 2 && len(todo) > 0; round++ {
		keyOf := func(c check) oracleKey {
			q := &reqs[c.r.phase][c.r.idx]
			return oracleKey{state: (recs[c.r.phase][c.r.idx].lo + round) % 2, method: q.method, q: q.queries[c.ans]}
		}
		seen := map[oracleKey]bool{}
		var keys []oracleKey
		for _, c := range todo {
			if k := keyOf(c); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sol := o.solve(keys, workers)
		var raced []check
		for _, c := range todo {
			k := keyOf(c)
			switch match(sol[k], c.got, o.graphs[k.state].Venue(), k.method) {
			case 2:
				c.r.answers++
				c.r.hits = append(c.r.hits, c.got.hit)
			case 1:
				c.r.answers++
				c.r.ties++
				c.r.hits = append(c.r.hits, c.got.hit)
			default:
				s := &recs[c.r.phase][c.r.idx]
				if round == 0 && s.hi > s.lo {
					raced = append(raced, c)
					continue
				}
				c.r.bad = true
				out[c.r.phase].wrong++
				out[c.r.phase].fail("request %d answer %d (states %d..%d): got found=%v length=%.6f arrive=%.3f doors=%v; want found=%v length=%.6f arrive=%.3f doors=%v %s",
					c.r.idx, c.ans, s.lo, s.hi, c.got.found, c.got.length, c.got.arrive, c.got.doors,
					sol[k].found, sol[k].length, sol[k].arrive, sol[k].doors, c.got.failed+sol[k].failed)
			}
		}
		todo = raced
	}
	for p := range recs {
		v := out[p]
		for _, r := range repOf[p] {
			if r.bad {
				v.failed++
			}
			v.answers += r.answers
			v.ties += r.ties
			for _, h := range r.hits {
				v.hits[h]++
			}
		}
	}
	return out
}
