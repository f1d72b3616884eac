package server

import (
	"math"
	"net/http"
	"runtime/debug"
	"strconv"

	"indoorpath/internal/obs"
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

// scopeFilter is a validated ?venue=/?method= narrowing of a
// fleet-wide introspection endpoint (/statsz, /cachez). Empty
// fields match everything.
type scopeFilter struct {
	venue  string
	method string
}

func (f scopeFilter) matchVenue(id string) bool { return f.venue == "" || f.venue == id }
func (f scopeFilter) matchMethod(m string) bool { return f.method == "" || f.method == m }

// parseScopeFilter validates the shared ?venue= / ?method= query
// parameters, mirroring the /tracez filter semantics: unknown
// parameters are a hard 400, and — stricter than /tracez, whose
// filters match free-form trace labels — so are unregistered venues
// and unknown pooled methods. A typoed filter silently matching
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
	case "", methodSyn, methodAsyn, methodStatic:
	default:
		writeError(w, http.StatusBadRequest,
			badRequest("unknown method %q (want syn, asyn or static)", f.method))
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
// endpoints cannot disagree within one scrape, and each venue's
// counters are read exactly once per scrape (one ve.Stats() call per
// venue — epoch and pool counters come from the same read).
type statsSnapshot struct {
	venues   []*Venue
	docs     []VenueStatsDoc // aligned with venues
	requests map[obs.RequestKey]obs.HistogramSnapshot
	stages   map[string]obs.HistogramSnapshot
	server   ServerStatsDoc
}

// snapshotStats collects one consistent scrape. Individual counters
// are independent atomics, so a snapshot taken under concurrent
// traffic can be torn between counters — but the per-pool read order
// inside service.Stats guarantees the serving-partition invariant
// (cache_hits + window_hits + deduped + misses == queries, misses >=
// engine-run lower bound) holds in every snapshot regardless.
func (s *Server) snapshotStats() statsSnapshot {
	venues := s.reg.Venues()
	sn := statsSnapshot{
		venues:   venues,
		docs:     make([]VenueStatsDoc, len(venues)),
		requests: s.obsv.RequestSnapshots(),
		stages:   s.obsv.StageSnapshots(),
		server:   ServerStatsDoc{Timeouts: s.timeouts.Load(), ClientGone: s.clientGone.Load()},
	}
	for i, ve := range venues {
		doc := ve.Stats()
		doc.Coalesce = s.coalesceStats(ve)
		doc.Requests = venueRequestSnapshots(sn.requests, ve.ID())
		sn.docs[i] = doc
	}
	return sn
}

// venueRequestSnapshots extracts one venue's request-latency
// histograms from the full per-(venue, method, outcome) map, merged
// over outcomes so /statsz clients (internal/replay) see one
// histogram per method. Nil when the venue has not served a request.
func venueRequestSnapshots(all map[obs.RequestKey]obs.HistogramSnapshot, venueID string) map[string]obs.HistogramSnapshot {
	var out map[string]obs.HistogramSnapshot
	for k, snap := range all {
		if k.Venue != venueID {
			continue
		}
		if out == nil {
			out = make(map[string]obs.HistogramSnapshot)
		}
		out[k.Method] = out[k.Method].Add(snap)
	}
	return out
}
