package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"indoorpath/internal/coalesce"
	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
	"indoorpath/internal/temporal"
)

// This file defines the JSON wire format of the query daemon. Times
// travel in two forms side by side: numeric seconds since midnight
// (exact, fractional — what clients doing arithmetic want) and the
// paper's "H:MM" rendering (what humans reading curl output want).
//
// Route and batch bodies (RouteResponse, BatchResponse) are not
// marshalled from these types: encode.go appends them by hand from the
// pool's results, and encode_test.go tests the bytes against
// encoding/json's on these types, which remain the schema clients
// decode into. Every other body goes through encoding/json.

// PointDoc is a location on a floor.
type PointDoc struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int     `json:"floor"`
}

func (p PointDoc) point() geom.Point { return geom.Pt(p.X, p.Y, p.Floor) }

// RouteRequest is the body of POST /v1/venues/{id}/route. From, To and
// At are required; Method defaults to "asyn"; Speed 0 means the
// paper's 5 km/h walking speed.
type RouteRequest struct {
	From *PointDoc `json:"from"`
	To   *PointDoc `json:"to"`
	// At is the departure time of day, "H:MM" or "H:MM:SS".
	At string `json:"at"`
	// Method is syn | asyn | static | waiting. Empty means asyn.
	// Inside a batch the method is fixed batch-wide and per-query
	// methods are rejected.
	Method string `json:"method,omitempty"`
	// Speed is the walking speed in m/s; 0 means 5 km/h.
	Speed float64 `json:"speed,omitempty"`
	// Trace opts into returning the request's span trace inline in
	// the response (solo routes only; rejected inside a batch).
	Trace bool `json:"trace,omitempty"`
}

// query validates the request and converts it to a core query. The
// returned *ErrorDoc is nil on success.
func (rq *RouteRequest) query() (core.Query, *ErrorDoc) {
	if rq.From == nil {
		return core.Query{}, badRequest("missing \"from\" point")
	}
	if rq.To == nil {
		return core.Query{}, badRequest("missing \"to\" point")
	}
	if rq.At == "" {
		return core.Query{}, badRequest("missing \"at\" time of day")
	}
	at, err := temporal.Parse(rq.At)
	if err != nil {
		return core.Query{}, badRequest("bad \"at\": %v", err)
	}
	if rq.Speed < 0 || math.IsNaN(rq.Speed) || math.IsInf(rq.Speed, 0) {
		return core.Query{}, badRequest("bad \"speed\" %v: must be a finite non-negative m/s value", rq.Speed)
	}
	return core.Query{Source: rq.From.point(), Target: rq.To.point(), At: at, Speed: rq.Speed}, nil
}

// BatchRequest is the body of POST /v1/venues/{id}/route:batch. The
// whole batch runs through one pool, so the method is batch-wide
// (waiting has no batch form).
type BatchRequest struct {
	Method  string         `json:"method,omitempty"`
	Queries []RouteRequest `json:"queries"`
}

// DoorStep is one door crossing of a returned path.
type DoorStep struct {
	Door      string  `json:"door"`
	ArriveSec float64 `json:"arrive_sec"`
	Arrive    string  `json:"arrive"`
}

// PathDoc is a found path on the wire.
type PathDoc struct {
	// Format is the paper's path notation, e.g. "(ps, d18, pt)".
	Format     string     `json:"format"`
	LengthM    float64    `json:"length_m"`
	Hops       int        `json:"hops"`
	DepartSec  float64    `json:"depart_sec"`
	Depart     string     `json:"depart"`
	ArriveSec  float64    `json:"arrive_sec"`
	Arrive     string     `json:"arrive"`
	WaitSec    float64    `json:"wait_sec,omitempty"`
	Doors      []DoorStep `json:"doors"`
	Partitions []string   `json:"partitions"`
}

// RouteResponse is one route outcome. Found=false with no error is the
// paper's regular "no such routes" answer (HTTP 200); per-query errors
// (e.g. an endpoint outside every partition) ride in Error.
type RouteResponse struct {
	Found bool     `json:"found"`
	Path  *PathDoc `json:"path,omitempty"`
	// Stats are the search statistics of the engine run that produced
	// the outcome (for cache hits: the original search); absent for
	// the waiting method, which has no comparable counters.
	Stats *core.SearchStats `json:"stats,omitempty"`
	// CacheHit marks outcomes served from a pool result cache (exact,
	// validity-window or skeleton).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Hit is the outcome's cache provenance: "miss" (engine search),
	// "exact" (exact-identity cache), "window" (validity-window cache,
	// arrivals recomputed for this departure) or "skeleton" (answer
	// composed from the OD pair's door-to-door skeleton family — no
	// stored answer for these exact points existed; itspqd
	// -skeleton-cache). Absent for the waiting method, which has no
	// pool.
	Hit string `json:"hit,omitempty"`
	// Shared marks batch entries answered by an identical query's
	// search elsewhere in the same batch.
	Shared bool `json:"shared,omitempty"`
	// SharedRun marks batch entries answered by a multi-query shared
	// execution — one engine run serving a whole same-endpoint group
	// (the shared-execution batch planner; itspqd -shared-batch).
	SharedRun bool `json:"shared_run,omitempty"`
	// Coalesced marks solo route answers that came out of a
	// multi-query flush of the standing cross-batch coalescer (itspqd
	// -coalesce): the request was held briefly and answered together
	// with concurrently arriving ones.
	Coalesced bool `json:"coalesced,omitempty"`
	// Explain is the decision provenance of a cache miss — why no
	// cache could answer: "no_exact_entry", "window_family_absent",
	// "outside_windows", "skeleton_uncertified" (a skeleton family
	// covered the departure but could not certify a composition for
	// these exact points) or "uncacheable" (the obs.Reason
	// vocabulary). Absent on hits and on deduped copies.
	Explain string    `json:"explain,omitempty"`
	Error   *ErrorDoc `json:"error,omitempty"`
	// Trace is the request's span trace, present only when the
	// request set "trace": true. Snapshotted just before the response
	// is encoded, so the render span itself is not included (the full
	// trace, render included, lands in /tracez).
	Trace *obs.TraceDoc `json:"trace,omitempty"`
}

// BatchCacheDoc summarises how one batch was served — the fields
// cmd/itspq prints as its sweep summary line. Searches counts engine
// runs actually executed: with the shared-execution planner one run
// can answer a whole group, so SharedAnswers entries share SharedRuns
// of those runs, and Queries = ExactHits + WindowHits + SkeletonHits +
// SharedAnswers + (Searches - SharedRuns) + deduplicated entries.
type BatchCacheDoc struct {
	Queries    int `json:"queries"`
	ExactHits  int `json:"exact_hits"`
	WindowHits int `json:"window_hits"`
	// SkeletonHits counts entries composed from a stored skeleton
	// family (itspqd -skeleton-cache); omitted while zero so the wire
	// is unchanged with the store off.
	SkeletonHits int `json:"skeleton_hits,omitempty"`
	Searches     int `json:"searches"`
	// SharedRuns / SharedAnswers are the shared-execution tallies,
	// omitted while zero so the wire is unchanged with the planner off.
	SharedRuns    int `json:"shared_runs,omitempty"`
	SharedAnswers int `json:"shared_answers,omitempty"`
}

// BatchResponse aligns positionally with BatchRequest.Queries.
type BatchResponse struct {
	Results []RouteResponse `json:"results"`
	// Cache summarises how the batch was served.
	Cache BatchCacheDoc `json:"cache"`
}

// ProfileEntryDoc is one checkpoint slot of a day profile.
type ProfileEntryDoc struct {
	StartSec  float64 `json:"start_sec"`
	Start     string  `json:"start"`
	EndSec    float64 `json:"end_sec"`
	End       string  `json:"end"`
	Reachable bool    `json:"reachable"`
	LengthM   float64 `json:"length_m,omitempty"`
	Hops      int     `json:"hops,omitempty"`
}

// ProfileResponse is the body of GET /v1/venues/{id}/profile.
type ProfileResponse struct {
	Venue   string            `json:"venue"`
	From    PointDoc          `json:"from"`
	To      PointDoc          `json:"to"`
	Entries []ProfileEntryDoc `json:"entries"`
}

// SchedulesRequest is the body of PUT /v1/venues/{id}/schedules.
// Updates maps door names to ATI lists ("8:00-16:00" or the paper's
// "[8:00, 16:00)"); null means always open, an empty list means always
// closed. The whole map is applied as one atomic graph swap.
type SchedulesRequest struct {
	Updates map[string][]string `json:"updates"`
}

// SchedulesResponse confirms an applied schedule update. Epoch is the
// venue's update generation after the swap; any request answered at
// this epoch or later reflects the new schedules.
type SchedulesResponse struct {
	Venue        string `json:"venue"`
	DoorsUpdated int    `json:"doors_updated"`
	Epoch        int64  `json:"epoch"`
}

// VenuesLoadRequest is the body of POST /v1/venues — hot venue reload:
// load built-in presets and/or a server-local directory of venue JSON
// files into the running daemon. Exactly one of Preset or Dir must be
// set. IDs are derived as at startup (preset names / file names); a
// taken ID answers 409 conflict.
type VenuesLoadRequest struct {
	// Preset is a comma-separated built-in list (see GET /v1/venues
	// sources), e.g. "office" or "hospital,figure1".
	Preset string `json:"preset,omitempty"`
	// Dir is a directory on the server host containing *.json venue
	// documents (the cmd/venuegen format). Directory loads are gated by
	// Options.VenueDirBase (itspqd -venues): disabled when unset, and
	// the requested directory must resolve inside the base.
	Dir string `json:"dir,omitempty"`
}

// VenuesLoadResponse confirms a hot venue load: the IDs added by this
// request and the new registry size.
type VenuesLoadResponse struct {
	Added  []string `json:"added"`
	Venues int      `json:"venues"`
}

// VenueInfo is one row of GET /v1/venues.
type VenueInfo struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Source      string `json:"source"`
	Partitions  int    `json:"partitions"`
	Doors       int    `json:"doors"`
	Floors      int    `json:"floors"`
	Checkpoints int    `json:"checkpoints"`
	Epoch       int64  `json:"epoch"`
}

// VenuesResponse is the body of GET /v1/venues, sorted by ID.
type VenuesResponse struct {
	Venues []VenueInfo `json:"venues"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	Venues int    `json:"venues"`
	// StartTime is the server's construction instant, RFC 3339 UTC —
	// a changed start time between two probes means a restart.
	StartTime string `json:"start_time,omitempty"`
	// Build is the binary's provenance (see BuildInfoDoc).
	Build *BuildInfoDoc `json:"build,omitempty"`
}

// BuildInfoDoc is the binary's build provenance, read once at server
// construction via runtime/debug.ReadBuildInfo. The VCS fields are
// stamped by `go build` for main packages in a repository checkout and
// absent otherwise (e.g. under `go test`), so consumers must treat
// them as best-effort.
type BuildInfoDoc struct {
	// GoVersion is the toolchain that built the binary ("go1.22.x").
	GoVersion string `json:"go_version"`
	// Module is the main module path.
	Module string `json:"module,omitempty"`
	// Revision is the VCS commit the binary was built from.
	Revision string `json:"vcs_revision,omitempty"`
	// Time is the commit timestamp (RFC 3339).
	Time string `json:"vcs_time,omitempty"`
	// Dirty reports uncommitted local modifications at build time — a
	// dirty binary's revision does not pin its behaviour.
	Dirty bool `json:"vcs_dirty,omitempty"`
}

// BuildzResponse is the body of GET /buildz: build provenance plus
// process start time, so replay artifacts and fleet debugging can pin
// which build produced a report.
type BuildzResponse struct {
	Build     BuildInfoDoc `json:"build"`
	StartTime string       `json:"start_time"`
	UptimeSec float64      `json:"uptime_sec"`
}

// VenueStatsDoc is one venue's section of a /statsz body: its epoch
// and one MethodStatsDoc per method key.
type VenueStatsDoc struct {
	Epoch   int64                     `json:"epoch"`
	Methods map[string]MethodStatsDoc `json:"methods"`
}

// MethodStatsDoc is one method's section of a /statsz body, gathered
// in one pass per scrape. A pooled method (syn, asyn, static) carries
// its pool's counters, flattened from the embedded service.Stats, and
// its cache and workload introspection. The waiting method and
// profile requests have no pool: their docs carry only Requests.
//
// The pool is read top pairs → effort → window and skeleton coverage
// → Stats, and Stats reads its query counter last, so in every body
// each TopPairs tally is <= Queries, occupancy <= capacity, and the
// partition invariant holds (misses >= 0, engine_searches <= misses).
type MethodStatsDoc struct {
	// Stats are the pool counters; nil where the method has no pool.
	*service.Stats
	// Requests is the server-side request-latency histogram,
	// merged over outcomes, present once the method has served a
	// request. internal/replay subtracts two scrapes of it to derive
	// per-phase latency quantiles independently of its own clock.
	Requests obs.HistogramSnapshot `json:"request_seconds,omitzero"`
	// EngineEffort are the per-search engine-effort histograms (pops,
	// settled, relaxations, TV checks; one observation per engine run).
	EngineEffort service.EffortSnapshot `json:"engine_effort,omitzero"`
	// Coalesce are the standing coalescer's counters, present when
	// coalescing is on and the method has seen a route.
	Coalesce coalesce.Stats `json:"coalesce,omitzero"`
	// TopPairs is the space-saving heavy-hitter table, heaviest first.
	// Tallies are exact up to each row's ErrBound (obs.TopK).
	TopPairs []HotPairDoc `json:"top_pairs,omitempty"`
	// PairCapacity is the top-K table's fixed slot budget.
	PairCapacity int `json:"pair_capacity,omitempty"`
	// WindowPairs and SkeletonPairs are the window and skeleton stores'
	// per-pair coverage rows, capped at maxPairRows each; the totals
	// count every pair before the cap, so truncation is never silent.
	WindowPairs        []WindowPairDoc   `json:"window_pairs,omitempty"`
	WindowPairsTotal   int               `json:"window_pairs_total,omitempty"`
	SkeletonPairs      []SkeletonPairDoc `json:"skeleton_pairs,omitempty"`
	SkeletonPairsTotal int               `json:"skeleton_pairs_total,omitempty"`
}

// ServerStatsDoc holds request-lifecycle counters of the server
// itself. Timeouts and ClientGone are deliberately separate: a client
// that hangs up is not a slow search, and counting it as one would
// inflate the 504 rate.
type ServerStatsDoc struct {
	Timeouts   int64 `json:"timeouts"`
	ClientGone int64 `json:"client_gone"`
}

// ProcessStatsDoc describes the serving process itself: when it
// started, how long it has been up, and its current concurrency
// footprint. Two /statsz scrapes can only be rate-normalised against
// each other when they come from one uninterrupted process — a changed
// start time means the counters reset in between.
type ProcessStatsDoc struct {
	// StartTime is the server's construction instant, RFC 3339 UTC.
	StartTime string `json:"start_time"`
	// UptimeSec is seconds since StartTime, at scrape time.
	UptimeSec float64 `json:"uptime_sec"`
	// Goroutines is the live goroutine count at scrape time.
	Goroutines int `json:"goroutines"`
	// GOMAXPROCS is the scheduler's processor limit.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// StatsResponse is the body of GET /statsz.
type StatsResponse struct {
	Venues map[string]VenueStatsDoc `json:"venues"`
	Server ServerStatsDoc           `json:"server"`
	// Process describes the serving process (start time, uptime,
	// goroutines) so scrape pairs can be rate-normalised.
	Process *ProcessStatsDoc `json:"process,omitempty"`
	// Stages are the process-wide per-stage duration histograms
	// (decode, hold, probe, plan, engine, store, render), keyed by
	// stage name.
	Stages map[string]obs.HistogramSnapshot `json:"stage_seconds,omitempty"`
}

// TracezResponse is the body of GET /tracez: the retained recent
// traces, slowest first, then the 1-in-N sampled population newest
// first. Filter query params (?venue=, ?method=, ?min_ms=, ?outcome=)
// narrow the listing server-side; Count counts the traces returned.
type TracezResponse struct {
	Count  int             `json:"count"`
	Traces []*obs.TraceDoc `json:"traces"`
}

// SkeletonPairDoc is one OD pair's stored skeleton-family summary.
type SkeletonPairDoc struct {
	Src string `json:"src"`
	Tgt string `json:"tgt"`
	// Families counts the pair's slot families (disjoint departure
	// windows); Chains sums their entry-door skeleton chains.
	Families int `json:"families"`
	Chains   int `json:"chains"`
	// DayCoverage is the share of the 24h departure axis the pair's
	// families cover: summed family-window seconds / 86400. Family
	// windows of one pair are disjoint, so the value never exceeds 1.
	DayCoverage float64 `json:"day_coverage"`
}

// WindowPairDoc is one OD pair's stored-window summary.
type WindowPairDoc struct {
	Src string `json:"src"`
	Tgt string `json:"tgt"`
	// Families counts distinct endpoint (source point, target point,
	// speed) triples holding windows for the pair.
	Families int `json:"families"`
	Windows  int `json:"windows"`
	// DayCoverage is the mean share of the 24h departure axis the
	// pair's endpoint families can answer without an engine: summed
	// stored-window seconds / (Families * 86400). Windows within one
	// family are disjoint, so the value never exceeds 1.
	DayCoverage float64 `json:"day_coverage"`
}

// HotPairDoc is one row of the top-K pair table, partition IDs
// resolved to names.
type HotPairDoc struct {
	Src            string `json:"src"`
	Tgt            string `json:"tgt"`
	Queries        int64  `json:"queries"`
	ExactHits      int64  `json:"exact_hits"`
	WindowHits     int64  `json:"window_hits"`
	SkeletonHits   int64  `json:"skeleton_hits"`
	Deduped        int64  `json:"deduped"`
	EngineSearches int64  `json:"engine_searches"`
	// Effort is the summed frontier pops of the pair's dedicated
	// engine searches.
	Effort int64 `json:"effort"`
	// ErrBound is the space-saving overestimate bound: Queries exceeds
	// the pair's true count by at most this much (0 = exact).
	ErrBound      int64   `json:"err_bound"`
	ExactHitRate  float64 `json:"exact_hit_rate"`
	WindowHitRate float64 `json:"window_hit_rate"`
	// DayCoverage is the pair's window-store day coverage (see
	// WindowPairDoc), 0 when the window cache is off or holds nothing
	// for the pair.
	DayCoverage float64 `json:"day_coverage"`
}

// ErrorDoc is the structured error envelope every non-2xx response
// carries (and batch entries embed).
type ErrorDoc struct {
	// Code is one of bad_request, not_found, not_indoor, timeout,
	// too_large, conflict, internal.
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *ErrorDoc) Error() string { return e.Message }

func badRequest(format string, args ...any) *ErrorDoc {
	return &ErrorDoc{Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

// Method names on the wire. methodProfile is not a route method: it
// labels profile requests, which walk every slot on a fresh engine of
// any pooled method, in the request-latency histograms.
const (
	methodSyn     = "syn"
	methodAsyn    = "asyn"
	methodStatic  = "static"
	methodWaiting = "waiting"
	methodProfile = "profile"
)

// parseMethod resolves a wire method name; empty means asyn. waiting
// is valid only where allowWaiting (it has no pooled engine).
func parseMethod(s string, allowWaiting bool) (core.Method, bool, *ErrorDoc) {
	switch s {
	case methodSyn:
		return core.MethodSyn, false, nil
	case methodAsyn, "":
		return core.MethodAsyn, false, nil
	case methodStatic:
		return core.MethodStatic, false, nil
	case methodWaiting:
		if !allowWaiting {
			return 0, false, badRequest("method %q has no pooled engine and is only available for single route requests", s)
		}
		return 0, true, nil
	default:
		return 0, false, badRequest("unknown method %q (want syn, asyn, static or waiting)", s)
	}
}

// methodName renders a pooled method's wire name.
func methodName(m core.Method) string {
	switch m {
	case core.MethodSyn:
		return methodSyn
	case core.MethodAsyn:
		return methodAsyn
	case core.MethodStatic:
		return methodStatic
	}
	return m.String()
}

// ParsePoint reads "x,y,floor" (the cmd/itspq flag syntax), used by the
// profile endpoint's query parameters.
func ParsePoint(s string) (geom.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return geom.Point{}, fmt.Errorf("want x,y,floor, got %q", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return geom.Point{}, err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return geom.Point{}, err
	}
	floor, err := strconv.Atoi(strings.TrimSpace(parts[2]))
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Pt(x, y, floor), nil
}

// parseUpdates resolves a wire schedule-update map (door names to ATI
// lists) against the venue model.
func parseUpdates(mv *model.Venue, updates map[string][]string) (map[model.DoorID]temporal.Schedule, *ErrorDoc) {
	out := make(map[model.DoorID]temporal.Schedule, len(updates))
	for door, atis := range updates {
		id, ok := mv.DoorByName(door)
		if !ok {
			return nil, badRequest("unknown door %q", door)
		}
		sched, errDoc := parseSchedule(door, atis)
		if errDoc != nil {
			return nil, errDoc
		}
		out[id] = sched
	}
	return out, nil
}

// parseSchedule converts one wire ATI list to a schedule: nil = always
// open (the WithSchedules convention), empty = always closed.
func parseSchedule(door string, atis []string) (temporal.Schedule, *ErrorDoc) {
	if atis == nil {
		return nil, nil
	}
	ivs := make([]temporal.Interval, 0, len(atis))
	for _, s := range atis {
		iv, err := temporal.ParseInterval(s)
		if err != nil {
			return nil, badRequest("door %q: bad ATI %q: %v", door, s, err)
		}
		ivs = append(ivs, iv)
	}
	sched, err := temporal.NewSchedule(ivs...)
	if err != nil {
		return nil, badRequest("door %q: %v", door, err)
	}
	return sched, nil
}
