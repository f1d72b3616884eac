// Package server is the HTTP/JSON front-end of the ITSPQ machinery: a
// Registry of venues (one service.Pool per engine method each) behind
// a small REST-ish API, turning the concurrent serving layer into a
// network daemon (cmd/itspqd).
//
// Endpoints:
//
//	GET  /healthz                       liveness + venue count + build provenance
//	GET  /buildz                        build provenance (VCS revision, go version, start time)
//	GET  /statsz                        per-venue, per-method counters, hot pairs, store coverage, engine effort
//	GET  /tracez                        recent request traces (slowest-K + sampled)
//	GET  /metricsz                      the same counters in Prometheus text format
//	GET  /v1/venues                     venue listing
//	POST /v1/venues                     hot venue reload (preset / JSON dir)
//	POST /v1/venues/{id}/route          one ITSPQ query
//	POST /v1/venues/{id}/route:batch    batch fan-out via Pool.RouteBatch
//	GET  /v1/venues/{id}/profile        day profile between two points
//	PUT  /v1/venues/{id}/schedules      live door-schedule update
//
// Concurrency: every handler is safe for arbitrary concurrency. Routes
// go through the per-(venue, method) service.Pool, so they inherit its
// guarantees — answers byte-identical to a sequential core.Engine, and
// schedule updates that swap graph+engines+cache atomically per pool
// (a response reflects either the pre- or the post-update schedules in
// full, and post-update requests can never be served pre-update cache
// entries). Schedule updates are serialised per venue; the registry
// row itself is never replaced by an update.
//
// With Options.Coalesce, solo route requests go through a standing
// per-(venue, method) coalescer (internal/coalesce): concurrent
// arrivals are held for up to Options.CoalesceHold and flushed as one
// shared-execution batch, so shareable singletons on separate HTTP
// requests cost one engine run together. Request aborts are
// classified: a server-side deadline answers 504 and counts a
// timeout, while a client disconnect is only counted (client_gone)
// and logged — nothing is written into the dead connection.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indoorpath/internal/coalesce"
	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
)

// Options tune a Server. The zero value is usable.
type Options struct {
	// RequestTimeout bounds route, batch and profile requests; when it
	// expires the handler answers 504 (the underlying search still runs
	// to completion on its goroutine — searches are not cancellable —
	// but its result is discarded). 0 means DefaultRequestTimeout;
	// negative disables the timeout. Schedule updates are never timed
	// out: once accepted they are applied.
	RequestTimeout time.Duration
	// MaxBatch caps the number of queries in one batch request.
	// 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxBodyBytes caps request body sizes. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// VenueDirBase gates POST /v1/venues {"dir": ...} hot reloads: when
	// empty (the default) directory loads are rejected — a remote
	// client must not get to point the daemon at arbitrary host paths —
	// and when set, the requested directory must resolve inside this
	// base. Preset loads are always allowed. cmd/itspqd sets it to the
	// -venues directory.
	VenueDirBase string
	// Coalesce enables the standing cross-batch request coalescer
	// (internal/coalesce) in front of every venue's method pools: solo
	// route requests are held for up to CoalesceHold and flushed as one
	// shared-execution batch, so shareable singletons arriving on
	// separate requests share engine runs. The registry's pools should
	// have service.Options.SharedBatch enabled (cmd/itspqd does this
	// automatically when -coalesce is set). The waiting method has no
	// pool and bypasses the coalescer.
	Coalesce bool
	// CoalesceHold is the coalescer's accumulation window; 0 means
	// coalesce.DefaultHold. It bounds the latency a solo request can
	// trade for sharing.
	CoalesceHold time.Duration
	// CoalesceMaxGroup caps one coalesced flush; 0 means
	// coalesce.DefaultMaxGroup.
	CoalesceMaxGroup int
	// Logf sinks server-side log lines (client disconnects, …); nil
	// means the standard library logger.
	Logf func(format string, args ...any)
}

// Defaults for Options zero values.
const (
	DefaultRequestTimeout = 15 * time.Second
	DefaultMaxBatch       = 4096
	DefaultMaxBodyBytes   = 8 << 20
)

// Server answers the HTTP API over a Registry. It implements
// http.Handler; wire it into an http.Server (or httptest) directly.
type Server struct {
	reg  *Registry
	opts Options
	mux  *http.ServeMux

	// coal maps a *service.Pool to its standing coalescer, built
	// lazily on first route (venues can hot-load after the server
	// exists). Pool pointers are stable: schedule updates swap the
	// graph inside a pool, never the pool itself.
	coal sync.Map

	// timeouts counts requests that hit the server-side deadline
	// (answered 504); clientGone counts requests whose client
	// disconnected before the answer was ready (no body written — the
	// connection is dead). Keeping them separate is the point: a wave
	// of impatient clients must not read as a wave of slow searches.
	timeouts   atomic.Int64
	clientGone atomic.Int64

	// started stamps server construction; /statsz reports it so two
	// scrapes of the same process can be rate-normalised (and a
	// restart between scrapes is detectable as a start-time change).
	started time.Time

	// obsv owns the request/stage latency histograms and the /tracez
	// trace ring. Every route, batch and profile request carries a
	// trace; the pool and coalescer layers below only pay for it
	// when the server hands one down.
	obsv *obs.Observer

	// build is the binary's provenance, read once at construction
	// (/healthz and /buildz report it so replay artifacts and fleet
	// debugging can pin which build produced a number).
	build BuildInfoDoc
}

// New builds a Server over a registry.
func New(reg *Registry, opts Options) *Server {
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	// A hold window at or beyond the request deadline would 504 every
	// lightly-loaded solo route (a singleton waits the full hold before
	// its flush): clamp it under the deadline rather than serve a
	// server that times out by construction.
	var clampedHold time.Duration
	if opts.Coalesce && opts.RequestTimeout > 0 {
		hold := opts.CoalesceHold
		if hold <= 0 {
			hold = coalesce.DefaultHold
		}
		if hold >= opts.RequestTimeout {
			clampedHold = hold
			opts.CoalesceHold = opts.RequestTimeout / 2
		}
	}
	s := &Server{
		reg: reg, opts: opts, mux: http.NewServeMux(), started: time.Now(),
		obsv:  obs.NewObserver(obs.ObserverOptions{}),
		build: readBuildInfo(),
	}
	if clampedHold > 0 {
		s.logf("coalesce hold %v >= request timeout %v; clamped to %v",
			clampedHold, opts.RequestTimeout, opts.CoalesceHold)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /buildz", s.handleBuildz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /tracez", s.handleTracez)
	s.mux.HandleFunc("GET /v1/venues", s.handleVenues)
	s.mux.HandleFunc("POST /v1/venues", s.handleVenuesLoad)
	s.mux.HandleFunc("POST /v1/venues/{id}/route", s.venueHandler(s.handleRoute))
	s.mux.HandleFunc("POST /v1/venues/{id}/route:batch", s.venueHandler(s.handleRouteBatch))
	s.mux.HandleFunc("GET /v1/venues/{id}/profile", s.venueHandler(s.handleProfile))
	s.mux.HandleFunc("PUT /v1/venues/{id}/schedules", s.venueHandler(s.handleSchedules))
	return s
}

// Registry returns the served registry.
func (s *Server) Registry() *Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// venueHandler resolves the {id} path segment to a registered venue.
func (s *Server) venueHandler(h func(http.ResponseWriter, *http.Request, *Venue)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		ve, ok := s.reg.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, &ErrorDoc{
				Code: "not_found", Message: fmt.Sprintf("unknown venue %q", id),
			})
			return
		}
		h(w, r, ve)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:    "ok",
		Venues:    s.reg.Len(),
		StartTime: s.started.UTC().Format(time.RFC3339Nano),
		Build:     &s.build,
	})
}

func (s *Server) handleBuildz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, BuildzResponse{
		Build:     s.build,
		StartTime: s.started.UTC().Format(time.RFC3339Nano),
		UptimeSec: time.Since(s.started).Seconds(),
	})
}

// handleStatsz serves the cumulative serving counters and the cache
// and workload introspection, one MethodStatsDoc per (venue, method).
// The strict ?venue=/?method= filters (parseScopeFilter) narrow the
// gather itself.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	f, ok := s.parseScopeFilter(w, r)
	if !ok {
		return
	}
	sn := s.snapshotStats(f, true)
	resp := StatsResponse{
		Venues: make(map[string]VenueStatsDoc, len(sn.venues)),
		Server: sn.server,
		Stages: sn.stages,
		Process: &ProcessStatsDoc{
			StartTime:  s.started.UTC().Format(time.RFC3339Nano),
			UptimeSec:  time.Since(s.started).Seconds(),
			Goroutines: runtime.NumGoroutine(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	for i, ve := range sn.venues {
		resp.Venues[ve.ID()] = sn.docs[i]
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleVenues(w http.ResponseWriter, _ *http.Request) {
	resp := VenuesResponse{Venues: []VenueInfo{}}
	for _, ve := range s.reg.Venues() {
		resp.Venues = append(resp.Venues, ve.Info())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleVenuesLoad is POST /v1/venues: hot venue reload. Presets and
// server-local venue-JSON directories load into the running registry
// exactly as the daemon's startup flags would (the registry supports
// concurrent Add; routes to existing venues keep flowing throughout).
// Like schedule updates, loads are deliberately not subject to the
// request timeout: once validated they are applied, so the response is
// truthful about what is being served.
func (s *Server) handleVenuesLoad(w http.ResponseWriter, r *http.Request) {
	var req VenuesLoadRequest
	if errDoc := s.decodeBody(w, r, &req); errDoc != nil {
		writeError(w, statusOf(errDoc), errDoc)
		return
	}
	if (req.Preset == "") == (req.Dir == "") {
		writeError(w, http.StatusBadRequest, badRequest("set exactly one of \"preset\" or \"dir\""))
		return
	}
	var added []string
	var err error
	if req.Preset != "" {
		added, err = s.reg.AddPresets(req.Preset)
	} else {
		var errDoc *ErrorDoc
		if errDoc = s.checkVenueDir(req.Dir); errDoc != nil {
			writeError(w, statusOf(errDoc), errDoc)
			return
		}
		added, err = s.reg.LoadDir(req.Dir)
	}
	if err != nil {
		// A mid-list failure leaves the earlier venues registered
		// (documented on LoadDir); say so instead of hiding the
		// mutation behind the error.
		msg := err.Error()
		if len(added) > 0 {
			msg = fmt.Sprintf("%s (venues added before the failure: %s)", msg, strings.Join(added, ", "))
		}
		errDoc := &ErrorDoc{Code: "bad_request", Message: msg}
		if errors.Is(err, ErrDuplicateVenue) {
			errDoc.Code = "conflict"
		}
		writeError(w, statusOf(errDoc), errDoc)
		return
	}
	writeJSON(w, http.StatusOK, VenuesLoadResponse{Added: added, Venues: s.reg.Len()})
}

// checkVenueDir enforces Options.VenueDirBase on a requested hot-load
// directory: loads are disabled without a base, and the request must
// resolve inside it (path-cleaned; no ".." escapes).
func (s *Server) checkVenueDir(dir string) *ErrorDoc {
	if s.opts.VenueDirBase == "" {
		return badRequest("directory loads are disabled on this daemon (start it with -venues to enable; presets are always available)")
	}
	base, err := filepath.Abs(s.opts.VenueDirBase)
	if err != nil {
		return &ErrorDoc{Code: "internal", Message: err.Error()}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return badRequest("bad \"dir\": %v", err)
	}
	rel, err := filepath.Rel(base, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return badRequest("\"dir\" must lie inside the daemon's venue directory")
	}
	return nil
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request, ve *Venue) {
	tr := s.obsv.NewTrace()
	info := obs.RequestInfo{Venue: ve.ID(), Method: methodAsyn}

	sp := tr.Start(obs.StageDecode)
	var req RouteRequest
	errDoc := s.decodeBody(w, r, &req)
	var q core.Query
	var m core.Method
	var waiting bool
	if errDoc == nil {
		q, errDoc = req.query()
	}
	if errDoc == nil {
		if m, waiting, errDoc = parseMethod(req.Method, true); errDoc == nil {
			if waiting {
				info.Method = methodWaiting
			} else {
				info.Method = methodName(m)
			}
		}
	}
	sp.End()
	if errDoc != nil {
		s.finishError(w, tr, info, errDoc)
		return
	}

	// A waiting answer comes from a router built per request (routers
	// are goroutine-confined) and has no pool, so it carries neither
	// provenance nor stats on the wire.
	res, outcome := runWithTimeout(r.Context(), s.opts.RequestTimeout, func() service.Result {
		if waiting {
			path, err := core.NewWaitingRouter(ve.Graph()).Route(q)
			return service.Result{Path: path, Err: err}
		}
		if c := s.coalescer(ve, m); c != nil {
			return c.RouteTraced(tr, q)
		}
		return ve.Pool(m).RouteTraced(tr, q)
	})
	if s.finishAborted(w, r, outcome, "route") {
		s.finishAbortedTrace(tr, info, outcome)
		return
	}
	refuseNonFinite(&res, q)
	info.Hit, info.Coalesced, info.SharedRun = string(res.Hit), res.Coalesced, res.SharedRun
	switch {
	case res.Err == nil:
		info.Outcome = obs.OutcomeOK
	case errors.Is(res.Err, core.ErrNoRoute):
		info.Outcome = obs.OutcomeNoRoute
	default:
		s.finishError(w, tr, info, errorDocOf(res.Err))
		return
	}
	var trace *obs.TraceDoc
	if req.Trace {
		trace = tr.Doc(info)
	}
	sp = tr.Start(obs.StageRender)
	e := newBodyEncoder()
	e.route(ve.Model(), &res, !waiting, trace)
	e.send(w)
	sp.End()
	s.obsv.FinishRequest(tr, info)
}

// finishError answers an error response with its render span recorded
// and the request's latency observed under the "error" outcome.
func (s *Server) finishError(w http.ResponseWriter, tr *obs.Trace, info obs.RequestInfo, e *ErrorDoc) {
	info.Outcome = obs.OutcomeError
	sp := tr.Start(obs.StageRender)
	writeError(w, statusOf(e), e)
	sp.End()
	s.obsv.FinishRequest(tr, info)
}

// finishAbortedTrace closes out the trace of a timed-out or
// client-abandoned request. The search may still be running on its
// orphaned goroutine; its spans keep feeding the stage histograms
// after this trace is published, they just no longer appear in it.
func (s *Server) finishAbortedTrace(tr *obs.Trace, info obs.RequestInfo, outcome runOutcome) {
	if outcome == runTimeout {
		info.Outcome = obs.OutcomeTimeout
	} else {
		info.Outcome = obs.OutcomeClientGone
	}
	s.obsv.FinishRequest(tr, info)
}

func (s *Server) handleRouteBatch(w http.ResponseWriter, r *http.Request, ve *Venue) {
	tr := s.obsv.NewTrace()
	info := obs.RequestInfo{Venue: ve.ID(), Method: methodAsyn}

	sp := tr.Start(obs.StageDecode)
	m, qs, errDoc := s.decodeBatch(w, r)
	if errDoc == nil {
		info.Method = methodName(m)
	}
	sp.End()
	if errDoc != nil {
		s.finishError(w, tr, info, errDoc)
		return
	}
	type batchOut struct {
		results []service.Result
		sum     service.BatchSummary
	}
	out, outcome := runWithTimeout(r.Context(), s.opts.RequestTimeout, func() batchOut {
		results, sum := ve.Pool(m).RouteBatchSummaryTraced(tr, qs)
		return batchOut{results, sum}
	})
	if s.finishAborted(w, r, outcome, "batch") {
		s.finishAbortedTrace(tr, info, outcome)
		return
	}
	for i := range out.results {
		refuseNonFinite(&out.results[i], qs[i])
	}
	info.Outcome = obs.OutcomeOK
	sp = tr.Start(obs.StageRender)
	e := newBodyEncoder()
	e.batch(ve.Model(), out.results, &out.sum)
	e.send(w)
	sp.End()
	s.obsv.FinishRequest(tr, info)
}

// decodeBatch reads and validates a batch request body. It returns
// the batch method and queries, or the error to answer with (status
// via statusOf).
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request) (core.Method, []core.Query, *ErrorDoc) {
	var req BatchRequest
	if errDoc := s.decodeBody(w, r, &req); errDoc != nil {
		return 0, nil, errDoc
	}
	if len(req.Queries) == 0 {
		return 0, nil, badRequest("empty \"queries\"")
	}
	if len(req.Queries) > s.opts.MaxBatch {
		return 0, nil, &ErrorDoc{
			Code:    "too_large",
			Message: fmt.Sprintf("batch of %d queries exceeds the %d-query limit", len(req.Queries), s.opts.MaxBatch),
		}
	}
	m, _, errDoc := parseMethod(req.Method, false)
	if errDoc != nil {
		return 0, nil, errDoc
	}
	qs := make([]core.Query, len(req.Queries))
	for i := range req.Queries {
		if req.Queries[i].Method != "" {
			return 0, nil, badRequest("queries[%d]: per-query methods are not allowed in a batch (set the batch-level \"method\")", i)
		}
		if req.Queries[i].Trace {
			return 0, nil, badRequest("queries[%d]: inline traces are not available in a batch (trace solo routes, or read /tracez)", i)
		}
		q, errDoc := req.Queries[i].query()
		if errDoc != nil {
			errDoc.Message = fmt.Sprintf("queries[%d]: %s", i, errDoc.Message)
			return 0, nil, errDoc
		}
		qs[i] = q
	}
	return m, qs, nil
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request, ve *Venue) {
	tr := s.obsv.NewTrace()
	info := obs.RequestInfo{Venue: ve.ID(), Method: methodProfile}

	sp := tr.Start(obs.StageDecode)
	src, tgt, m, errDoc := parseProfileParams(r)
	sp.End()
	if errDoc != nil {
		s.finishError(w, tr, info, errDoc)
		return
	}
	type profileOut struct {
		entries []core.ProfileEntry
		err     error
	}
	out, outcome := runWithTimeout(r.Context(), s.opts.RequestTimeout, func() profileOut {
		// Engines are cheap to build (lazily allocated search state);
		// the profile walks every checkpoint slot on one fresh,
		// goroutine-confined engine over the current graph.
		sp := tr.Start(obs.StageEngine)
		defer sp.End()
		e := core.NewEngine(ve.Graph(), core.Options{Method: m})
		entries, err := core.DayProfile(e, src, tgt)
		return profileOut{entries, err}
	})
	if s.finishAborted(w, r, outcome, "profile") {
		s.finishAbortedTrace(tr, info, outcome)
		return
	}
	if out.err != nil {
		s.finishError(w, tr, info, errorDocOf(out.err))
		return
	}
	resp := ProfileResponse{
		Venue:   ve.ID(),
		From:    PointDoc{X: src.X, Y: src.Y, Floor: src.Floor},
		To:      PointDoc{X: tgt.X, Y: tgt.Y, Floor: tgt.Floor},
		Entries: make([]ProfileEntryDoc, 0, len(out.entries)),
	}
	for _, e := range out.entries {
		resp.Entries = append(resp.Entries, ProfileEntryDoc{
			StartSec:  float64(e.Start),
			Start:     e.Start.String(),
			EndSec:    float64(e.End),
			End:       e.End.String(),
			Reachable: e.Reachable,
			LengthM:   e.Length,
			Hops:      e.Hops,
		})
	}
	info.Outcome = obs.OutcomeOK
	sp = tr.Start(obs.StageRender)
	writeJSON(w, http.StatusOK, resp)
	sp.End()
	s.obsv.FinishRequest(tr, info)
}

// parseProfileParams extracts the profile endpoint's query parameters.
func parseProfileParams(r *http.Request) (src, tgt geom.Point, m core.Method, errDoc *ErrorDoc) {
	fromStr := r.URL.Query().Get("from")
	toStr := r.URL.Query().Get("to")
	if fromStr == "" || toStr == "" {
		return src, tgt, 0, badRequest("missing \"from\" / \"to\" query parameters (x,y,floor)")
	}
	var err error
	if src, err = ParsePoint(fromStr); err != nil {
		return src, tgt, 0, badRequest("bad \"from\": %v", err)
	}
	if tgt, err = ParsePoint(toStr); err != nil {
		return src, tgt, 0, badRequest("bad \"to\": %v", err)
	}
	m, _, errDoc = parseMethod(r.URL.Query().Get("method"), false)
	return src, tgt, m, errDoc
}

func (s *Server) handleSchedules(w http.ResponseWriter, r *http.Request, ve *Venue) {
	var req SchedulesRequest
	if errDoc := s.decodeBody(w, r, &req); errDoc != nil {
		writeError(w, statusOf(errDoc), errDoc)
		return
	}
	if len(req.Updates) == 0 {
		writeError(w, http.StatusBadRequest, badRequest("empty \"updates\""))
		return
	}
	parsed, errDoc := parseUpdates(ve.Model(), req.Updates)
	if errDoc != nil {
		writeError(w, http.StatusBadRequest, errDoc)
		return
	}
	// Deliberately not subject to the request timeout: once validated,
	// the update is applied — a timed-out-but-applied swap would leave
	// the client unable to tell which schedules are live.
	epoch, err := ve.UpdateSchedules(parsed)
	if err != nil {
		writeError(w, http.StatusInternalServerError, &ErrorDoc{Code: "internal", Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SchedulesResponse{
		Venue:        ve.ID(),
		DoorsUpdated: len(parsed),
		Epoch:        epoch,
	})
}

// errNonFinite is the error of an answer that JSON cannot carry.
var errNonFinite = errors.New("the route's length, arrival or wait is not a finite number")

// refuseNonFinite turns a found answer whose path holds a non-finite
// length, arrival or wait (a walking speed so small that every walk
// takes forever) into an error naming the speed, which errorDocOf
// classifies as a bad request.
func refuseNonFinite(res *service.Result, q core.Query) {
	if res.Err != nil || finitePath(res.Path) {
		return
	}
	speed := q.Speed
	if speed == 0 {
		speed = core.WalkingSpeedMPS
	}
	res.Path, res.Err = nil, fmt.Errorf("%w at walking speed %v m/s", errNonFinite, speed)
}

// finitePath reports whether every number of p's wire form is finite.
func finitePath(p *core.Path) bool {
	finite := func(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }
	if !finite(p.Length) || !finite(float64(p.DepartedAt)) || !finite(float64(p.ArrivalAtTgt)) || !finite(float64(p.TotalWait)) {
		return false
	}
	for _, t := range p.Arrivals {
		if !finite(float64(t)) {
			return false
		}
	}
	return true
}

// errorDocOf classifies an engine error.
func errorDocOf(err error) *ErrorDoc {
	switch {
	case errors.Is(err, core.ErrNotIndoor):
		return &ErrorDoc{Code: "not_indoor", Message: err.Error()}
	case errors.Is(err, errNonFinite):
		return badRequest("%v", err)
	}
	return &ErrorDoc{Code: "internal", Message: err.Error()}
}

// runOutcome says how runWithTimeout ended: with fn's result, by the
// server-side deadline, or because the client disconnected first. The
// two abort causes were previously conflated into one "timed out"
// answer, which both inflated the timeout counters with impatient
// clients and wrote 504 bodies into dead connections.
type runOutcome uint8

const (
	// runDone: fn completed within the deadline.
	runDone runOutcome = iota
	// runTimeout: the server-side deadline expired (context.DeadlineExceeded).
	runTimeout
	// runClientGone: the client's request context was cancelled — the
	// connection is gone and nobody is listening for an answer.
	runClientGone
)

// runWithTimeout runs fn on its own goroutine and waits for the result,
// the deadline, or the client hanging up, whichever comes first. fn
// always runs to completion (searches are not cancellable); on either
// abort its result is discarded. A client that is already gone aborts
// before fn starts — no point burning an engine search for a dead
// connection.
func runWithTimeout[T any](ctx context.Context, d time.Duration, fn func() T) (T, runOutcome) {
	var zero T
	if ctx.Err() != nil {
		return zero, runClientGone
	}
	if d < 0 {
		// Timeout disabled: run inline, but still classify a client
		// that hung up while fn ran — its result has nowhere to go.
		v := fn()
		if ctx.Err() != nil {
			return zero, runClientGone
		}
		return v, runDone
	}
	tctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	ch := make(chan T, 1)
	go func() { ch <- fn() }()
	select {
	case v := <-ch:
		return v, runDone
	case <-tctx.Done():
		if errors.Is(tctx.Err(), context.Canceled) {
			return zero, runClientGone
		}
		return zero, runTimeout
	}
}

// finishAborted resolves a non-done runWithTimeout outcome: a real
// deadline answers 504 and counts a timeout; a client disconnect is
// counted and logged but no body is written — the connection is dead,
// and a 504 there would only corrupt the stats. Returns true when the
// request is finished.
func (s *Server) finishAborted(w http.ResponseWriter, r *http.Request, outcome runOutcome, what string) bool {
	switch outcome {
	case runTimeout:
		s.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, &ErrorDoc{Code: "timeout", Message: what + " timed out"})
		return true
	case runClientGone:
		s.clientGone.Add(1)
		s.logf("%s %s: client disconnected before the %s completed; result discarded", r.Method, r.URL.Path, what)
		return true
	}
	return false
}

// logf writes one server log line through Options.Logf (default: the
// standard library logger).
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
		return
	}
	log.Printf("indoorpath/server: "+format, args...)
}

// coalescer returns the standing coalescer of a venue's method pool,
// building it on first use (venues can hot-load into a running
// server), or nil when coalescing is disabled. Keyed by pool pointer:
// pools are stable for the life of a venue row, one coalescer per
// (venue, method).
func (s *Server) coalescer(ve *Venue, m core.Method) *coalesce.Coalescer {
	if !s.opts.Coalesce {
		return nil
	}
	pool := ve.Pool(m)
	if c, ok := s.coal.Load(pool); ok {
		return c.(*coalesce.Coalescer)
	}
	c, _ := s.coal.LoadOrStore(pool, coalesce.New(pool, coalesce.Options{
		Hold:     s.opts.CoalesceHold,
		MaxGroup: s.opts.CoalesceMaxGroup,
	}))
	return c.(*coalesce.Coalescer)
}

// decodeBody reads and strictly decodes a JSON request body.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) *ErrorDoc {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &ErrorDoc{Code: "too_large", Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	_, _ = io.Copy(io.Discard, r.Body)
	return nil
}

// statusOf maps an error code to its HTTP status.
func statusOf(e *ErrorDoc) int {
	switch e.Code {
	case "bad_request":
		return http.StatusBadRequest
	case "not_found":
		return http.StatusNotFound
	case "not_indoor":
		return http.StatusUnprocessableEntity
	case "timeout":
		return http.StatusGatewayTimeout
	case "too_large":
		return http.StatusRequestEntityTooLarge
	case "conflict":
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, e *ErrorDoc) {
	writeJSON(w, status, struct {
		Error *ErrorDoc `json:"error"`
	}{e})
}
