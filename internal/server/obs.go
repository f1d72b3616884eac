package server

import (
	"cmp"
	"math"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"

	"indoorpath/internal/coalesce"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
	"indoorpath/internal/tcache"
	"indoorpath/internal/temporal"
)

// This file is the server side of the observability surface: GET
// /tracez (with server-side filters), build provenance, and the
// consistent stats snapshot shared by /statsz and /metricsz.

// handleTracez serves the retained recent traces: the slowest-K first
// (descending duration), then the 1-in-N sampled population newest
// first. The ring is bounded, so the response is too. Filters narrow
// the listing server-side — ?venue=, ?method=, ?outcome= match
// exactly, ?min_ms= keeps traces at or above the duration — and
// unknown parameters are a hard 400: a typoed filter silently matching
// everything is exactly how slow-trace triage goes wrong.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for k := range q {
		switch k {
		case "venue", "method", "min_ms", "outcome":
		default:
			writeError(w, http.StatusBadRequest,
				badRequest("unknown query parameter %q (supported: venue, method, min_ms, outcome)", k))
			return
		}
	}
	venue, method, outcome := q.Get("venue"), q.Get("method"), q.Get("outcome")
	var minMs float64
	if v := q.Get("min_ms"); v != "" {
		var err error
		// ParseFloat accepts NaN and ±Inf; NaN would pass the sign
		// check and then match every trace.
		if minMs, err = strconv.ParseFloat(v, 64); err != nil || minMs < 0 || math.IsNaN(minMs) || math.IsInf(minMs, 0) {
			writeError(w, http.StatusBadRequest, badRequest("bad \"min_ms\": want a finite non-negative number, got %q", v))
			return
		}
	}
	switch outcome {
	case "", obs.OutcomeOK, obs.OutcomeNoRoute, obs.OutcomeError, obs.OutcomeTimeout, obs.OutcomeClientGone:
	default:
		writeError(w, http.StatusBadRequest, badRequest("bad \"outcome\": %q (want ok, no_route, error, timeout or client_gone)", outcome))
		return
	}

	traces := []*obs.TraceDoc{}
	for _, d := range s.obsv.Traces() {
		if (venue != "" && d.Venue != venue) ||
			(method != "" && d.Method != method) ||
			(outcome != "" && d.Outcome != outcome) ||
			d.DurationMs < minMs {
			continue
		}
		traces = append(traces, d)
	}
	writeJSON(w, http.StatusOK, TracezResponse{Count: len(traces), Traces: traces})
}

// scopeFilter is a validated ?venue=/?method= narrowing of /statsz.
// Empty fields match everything.
type scopeFilter struct {
	venue  string
	method string
}

func (f scopeFilter) matchVenue(id string) bool { return f.venue == "" || f.venue == id }
func (f scopeFilter) matchMethod(m string) bool { return f.method == "" || f.method == m }

// parseScopeFilter validates the ?venue= / ?method= query parameters,
// mirroring the /tracez filter semantics: unknown parameters are a
// hard 400, and — stricter than /tracez, whose filters match
// free-form trace labels — so are unregistered venues and method keys
// a /statsz body cannot carry. A typoed filter silently matching
// everything (or nothing) is exactly how scrape triage goes wrong.
// Reports ok=false after writing the error response itself.
func (s *Server) parseScopeFilter(w http.ResponseWriter, r *http.Request) (scopeFilter, bool) {
	q := r.URL.Query()
	for k := range q {
		switch k {
		case "venue", "method":
		default:
			writeError(w, http.StatusBadRequest,
				badRequest("unknown query parameter %q (supported: venue, method)", k))
			return scopeFilter{}, false
		}
	}
	f := scopeFilter{venue: q.Get("venue"), method: q.Get("method")}
	if f.venue != "" {
		if _, ok := s.reg.Get(f.venue); !ok {
			writeError(w, http.StatusBadRequest, badRequest("unknown venue %q", f.venue))
			return scopeFilter{}, false
		}
	}
	switch f.method {
	case "", methodSyn, methodAsyn, methodStatic, methodWaiting, methodProfile:
	default:
		writeError(w, http.StatusBadRequest,
			badRequest("unknown method %q (want syn, asyn, static, waiting or profile)", f.method))
		return scopeFilter{}, false
	}
	return f, true
}

// readBuildInfo derives the server's build provenance once. The VCS
// settings are only stamped into main-package builds from a repository
// checkout; everything stays best-effort (empty fields, not errors).
func readBuildInfo() BuildInfoDoc {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return BuildInfoDoc{}
	}
	doc := BuildInfoDoc{GoVersion: bi.GoVersion, Module: bi.Main.Path}
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			doc.Revision = st.Value
		case "vcs.time":
			doc.Time = st.Value
		case "vcs.modified":
			doc.Dirty = st.Value == "true"
		}
	}
	return doc
}

// statsSnapshot is one scrape's view of every counter the server
// exposes. /statsz and /metricsz render the same snapshot, so the two
// endpoints cannot disagree within one scrape, and each pool is read
// exactly once per scrape.
type statsSnapshot struct {
	venues   []*Venue
	docs     []VenueStatsDoc // aligned with venues
	requests map[obs.RequestKey]obs.HistogramSnapshot
	stages   map[string]obs.HistogramSnapshot
	server   ServerStatsDoc
}

// maxPairRows caps each per-pair coverage listing of a method doc.
const maxPairRows = 64

// snapshotStats gathers one scrape of the venues and methods f
// matches. Counters are independent atomics, so a scrape racing
// traffic can be torn between counters; the read order of
// methodStats keeps every MethodStatsDoc invariant in every body
// regardless. coverage adds the window and skeleton coverage rows,
// which only /statsz renders: their walk visits every stored pair.
func (s *Server) snapshotStats(f scopeFilter, coverage bool) statsSnapshot {
	sn := statsSnapshot{
		requests: s.obsv.RequestSnapshots(),
		stages:   s.obsv.StageSnapshots(),
		server:   ServerStatsDoc{Timeouts: s.timeouts.Load(), ClientGone: s.clientGone.Load()},
	}
	for _, ve := range s.reg.Venues() {
		if !f.matchVenue(ve.ID()) {
			continue
		}
		doc := VenueStatsDoc{Epoch: ve.Epoch(), Methods: make(map[string]MethodStatsDoc, len(pooledMethods))}
		mv := ve.Model()
		for _, m := range pooledMethods {
			if name := methodName(m); f.matchMethod(name) {
				doc.Methods[name] = s.methodStats(ve.Pool(m), mv, coverage)
			}
		}
		// Request histograms merge over outcomes, one per method key.
		for k, h := range sn.requests {
			if k.Venue == ve.ID() && f.matchMethod(k.Method) {
				md := doc.Methods[k.Method]
				md.Requests = md.Requests.Add(h)
				doc.Methods[k.Method] = md
			}
		}
		sn.venues = append(sn.venues, ve)
		sn.docs = append(sn.docs, doc)
	}
	return sn
}

// methodStats reads one pool: top pairs, effort histograms, window
// and skeleton coverage, then Stats, whose query counter is read last
// and so bounds every tally read before it. Occupancy and capacity
// come from one locked read each.
func (s *Server) methodStats(pool *service.Pool, mv *model.Venue, coverage bool) MethodStatsDoc {
	pairs := pool.HotPairs()
	doc := MethodStatsDoc{EngineEffort: pool.Effort(), PairCapacity: pool.HotPairCapacity()}
	top := make(map[tcache.Key]int, len(pairs)) // top pair -> row
	for _, pc := range pairs {
		key := tcache.Key{Src: model.PartitionID(pc.Key.Src), Tgt: model.PartitionID(pc.Key.Tgt)}
		top[key] = len(doc.TopPairs)
		doc.TopPairs = append(doc.TopPairs, HotPairDoc{
			Src:            partName(mv, key.Src),
			Tgt:            partName(mv, key.Tgt),
			Queries:        pc.Queries,
			ExactHits:      pc.ExactHits,
			WindowHits:     pc.WindowHits,
			SkeletonHits:   pc.SkeletonHits,
			Deduped:        pc.Deduped,
			EngineSearches: pc.EngineSearches,
			Effort:         pc.Effort,
			ErrBound:       pc.ErrBound,
			ExactHitRate:   ratio(pc.ExactHits, pc.Queries),
			WindowHitRate:  ratio(pc.WindowHits, pc.Queries),
		})
	}
	if coverage {
		addCoverage(&doc, mv, top, pool.WindowCoverage, pool.SkeletonCoverage)
	}
	st := pool.Stats()
	doc.Stats = &st
	if c, ok := s.coal.Load(pool); ok {
		doc.Coalesce = c.(*coalesce.Coalescer).Stats()
	}
	return doc
}

// addCoverage walks the window and the skeleton store once each,
// through visitors shaped like tcache.Store.Coverage. It counts every
// pair into the *_pairs_total figures, sets each top pair's day
// coverage from its window tallies, and lists the maxPairRows largest
// pairs of each store.
func addCoverage(doc *MethodStatsDoc, mv *model.Venue, top map[tcache.Key]int, windows, skels func(func(tcache.PairCoverage))) {
	var wr, sr pairRows
	windows(func(pc tcache.PairCoverage) {
		wr.add(pc)
		if row, ok := top[pc.Key]; ok {
			doc.TopPairs[row].DayCoverage = dayCoverage(pc)
		}
	})
	skels(sr.add)
	doc.WindowPairsTotal, doc.SkeletonPairsTotal = wr.total, sr.total
	rows := wr.top()
	doc.WindowPairs = make([]WindowPairDoc, len(rows))
	for i, pc := range rows {
		doc.WindowPairs[i] = WindowPairDoc{
			Src:         partName(mv, pc.Key.Src),
			Tgt:         partName(mv, pc.Key.Tgt),
			Families:    pc.Families,
			Windows:     pc.Windows,
			DayCoverage: dayCoverage(pc),
		}
	}
	rows = sr.top()
	doc.SkeletonPairs = make([]SkeletonPairDoc, len(rows))
	for i, pc := range rows {
		doc.SkeletonPairs[i] = SkeletonPairDoc{
			Src:         partName(mv, pc.Key.Src),
			Tgt:         partName(mv, pc.Key.Tgt),
			Families:    pc.Families,
			Chains:      pc.Windows,
			DayCoverage: pc.CoveredSec / float64(temporal.DaySeconds),
		}
	}
}

// pairRows keeps the maxPairRows first coverage rows of one store walk
// in listing order — most windows (chains) first, ties by ascending
// source, then target — and counts every pair. Its buffer holds twice
// the rows: when it fills, a sort keeps the first half, and from then
// on a pair that sorts after the last row kept is not buffered at all.
type pairRows struct {
	rows    []tcache.PairCoverage
	total   int
	trimmed bool // a cut ran: rows[maxPairRows-1] is the last row kept so far
}

func (t *pairRows) add(pc tcache.PairCoverage) {
	t.total++
	if t.trimmed && coverageOrder(pc, t.rows[maxPairRows-1]) > 0 {
		return
	}
	if t.rows == nil {
		t.rows = make([]tcache.PairCoverage, 0, 2*maxPairRows)
	}
	if len(t.rows) == cap(t.rows) {
		t.cut()
		t.trimmed = true
	}
	t.rows = append(t.rows, pc)
}

// top returns the kept rows in listing order.
func (t *pairRows) top() []tcache.PairCoverage {
	t.cut()
	return t.rows
}

func (t *pairRows) cut() {
	slices.SortFunc(t.rows, coverageOrder)
	t.rows = t.rows[:min(len(t.rows), maxPairRows)]
}

func coverageOrder(a, b tcache.PairCoverage) int {
	return cmp.Or(
		cmp.Compare(b.Windows, a.Windows),
		cmp.Compare(a.Key.Src, b.Key.Src),
		cmp.Compare(a.Key.Tgt, b.Key.Tgt))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// dayCoverage derives a pair's mean per-family share of the 24h
// departure axis. Windows within one family are disjoint, so the
// value lies in [0, 1].
func dayCoverage(pc tcache.PairCoverage) float64 {
	if pc.Families == 0 {
		return 0
	}
	return pc.CoveredSec / (float64(pc.Families) * float64(temporal.DaySeconds))
}

// partName resolves a partition ID against the venue model.
func partName(mv *model.Venue, id model.PartitionID) string {
	return mv.Partition(id).Name
}
