package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"indoorpath/internal/coalesce"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
)

// This file implements GET /metricsz: the pool counters of /statsz in
// Prometheus text exposition format (version 0.0.4), hand-rolled so the
// daemon stays dependency-free. Output is deterministic — venues sorted
// by ID (Registry.Venues), methods in pooledMethods order — so scrapes
// and tests see stable series ordering. One scrape renders one
// snapshotStats call, without the coverage rows it does not render:
// every series in a response body comes from one read of each pool.

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricDef is one exported series family over the per-(venue, method)
// pool stats.
type metricDef struct {
	name  string
	kind  string // counter | gauge
	help  string
	value func(service.Stats) int64
}

var poolMetrics = []metricDef{
	{"indoorpath_pool_queries_total", "counter",
		"Route calls and batch entries served, per venue and engine method.",
		func(s service.Stats) int64 { return s.Queries }},
	{"indoorpath_pool_batches_total", "counter",
		"RouteBatch calls served.",
		func(s service.Stats) int64 { return s.Batches }},
	{"indoorpath_pool_exact_hits_total", "counter",
		"Outcomes served from the exact-identity result cache.",
		func(s service.Stats) int64 { return s.CacheHits }},
	{"indoorpath_pool_window_hits_total", "counter",
		"Outcomes served from the validity-window temporal result cache.",
		func(s service.Stats) int64 { return s.WindowHits }},
	{"indoorpath_pool_skeleton_hits_total", "counter",
		"Outcomes composed from a stored door-to-door skeleton family.",
		func(s service.Stats) int64 { return s.SkeletonHits }},
	{"indoorpath_pool_deduped_total", "counter",
		"Batch entries shared from an identical query in the same batch.",
		func(s service.Stats) int64 { return s.Deduped }},
	{"indoorpath_pool_engine_searches_total", "counter",
		"Queries answered by running an engine search (cache misses).",
		func(s service.Stats) int64 { return s.EngineSearches }},
	{"indoorpath_pool_shared_runs_total", "counter",
		"Multi-query shared executions: engine runs answering a whole batch group.",
		func(s service.Stats) int64 { return s.SharedRuns }},
	{"indoorpath_pool_shared_answers_total", "counter",
		"Batch entries answered by a shared multi-query engine run.",
		func(s service.Stats) int64 { return s.SharedAnswers }},
	{"indoorpath_pool_engines_created_total", "counter",
		"Engines constructed rather than reused from the pool.",
		func(s service.Stats) int64 { return s.EnginesCreated }},
	{"indoorpath_pool_epoch", "gauge",
		"Backend generation: graph swaps applied to the pool since start.",
		func(s service.Stats) int64 { return s.Epoch }},
	{"indoorpath_cache_entries", "gauge",
		"Exact-identity result-cache occupancy (entries currently held).",
		func(s service.Stats) int64 { return s.CacheEntries }},
	{"indoorpath_cache_capacity", "gauge",
		"Exact-identity result-cache entry capacity.",
		func(s service.Stats) int64 { return s.CacheCapacity }},
	{"indoorpath_cache_evictions_total", "counter",
		"Exact-cache entries shed by capacity eviction (invalidation swaps excluded); survives backend swaps.",
		func(s service.Stats) int64 { return s.CacheEvictions }},
	{"indoorpath_window_entries", "gauge",
		"Validity-window store occupancy (windows currently held).",
		func(s service.Stats) int64 { return s.Windows }},
	{"indoorpath_window_capacity", "gauge",
		"Validity-window store window capacity.",
		func(s service.Stats) int64 { return s.WindowCapacity }},
	{"indoorpath_window_evictions_total", "counter",
		"Window-store windows shed by capacity eviction; survives backend swaps.",
		func(s service.Stats) int64 { return s.WindowEvictions }},
	{"indoorpath_skeleton_families", "gauge",
		"Skeleton-family store occupancy (slot families currently held).",
		func(s service.Stats) int64 { return s.SkelFamilies }},
	{"indoorpath_skeleton_capacity", "gauge",
		"Skeleton-family store family capacity.",
		func(s service.Stats) int64 { return s.SkelCapacity }},
	{"indoorpath_skeleton_evictions_total", "counter",
		"Skeleton families shed by capacity eviction; survives backend swaps.",
		func(s service.Stats) int64 { return s.SkelEvictions }},
}

// handleMetricsz renders every pool counter, the request/stage latency
// histograms and per-venue and process gauges in Prometheus text
// format.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	sn := s.snapshotStats(scopeFilter{}, false)
	rows := sn.pooledRows()
	var sb strings.Builder

	fmt.Fprintf(&sb, "# HELP indoorpath_venues Venues registered in the serving registry.\n")
	fmt.Fprintf(&sb, "# TYPE indoorpath_venues gauge\n")
	fmt.Fprintf(&sb, "indoorpath_venues %d\n", len(sn.venues))

	fmt.Fprintf(&sb, "# HELP indoorpath_venue_epoch Schedule updates applied to the venue.\n")
	fmt.Fprintf(&sb, "# TYPE indoorpath_venue_epoch gauge\n")
	for i, ve := range sn.venues {
		fmt.Fprintf(&sb, "indoorpath_venue_epoch{%s} %d\n", labels("venue", ve.ID()), sn.docs[i].Epoch)
	}

	for _, md := range poolMetrics {
		fmt.Fprintf(&sb, "# HELP %s %s\n", md.name, md.help)
		fmt.Fprintf(&sb, "# TYPE %s %s\n", md.name, md.kind)
		for _, r := range rows {
			fmt.Fprintf(&sb, "%s{%s} %d\n", md.name, r.labels, md.value(*r.doc.Stats))
		}
	}

	// Request-lifecycle counters: real deadline 504s vs clients that
	// hung up first (kept apart so disconnect waves don't read as slow
	// searches).
	fmt.Fprintf(&sb, "# HELP indoorpath_server_timeouts_total Requests that hit the server-side deadline and answered 504.\n")
	fmt.Fprintf(&sb, "# TYPE indoorpath_server_timeouts_total counter\n")
	fmt.Fprintf(&sb, "indoorpath_server_timeouts_total %d\n", sn.server.Timeouts)
	fmt.Fprintf(&sb, "# HELP indoorpath_server_client_gone_total Requests whose client disconnected before the answer was ready (no 504 emitted).\n")
	fmt.Fprintf(&sb, "# TYPE indoorpath_server_client_gone_total counter\n")
	fmt.Fprintf(&sb, "indoorpath_server_client_gone_total %d\n", sn.server.ClientGone)

	if s.opts.Coalesce {
		writeCoalesceMetrics(&sb, rows)
	}
	writeReasonMetrics(&sb, rows)
	writeLatencyMetrics(&sb, sn)
	writeEffortMetrics(&sb, rows)

	w.Header().Set("Content-Type", metricsContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(sb.String()))
}

// pooledRow is one (venue, pooled method) doc of a snapshot with its
// rendered venue and method labels.
type pooledRow struct {
	labels string
	doc    MethodStatsDoc
}

// pooledRows lists the snapshot's pooled-method docs in series order:
// venues by ID, methods in pooledMethods order.
func (sn statsSnapshot) pooledRows() []pooledRow {
	rows := make([]pooledRow, 0, len(sn.venues)*len(pooledMethods))
	for i, ve := range sn.venues {
		for _, m := range pooledMethods {
			rows = append(rows, pooledRow{
				labels: labels("venue", ve.ID(), "method", methodName(m)),
				doc:    sn.docs[i].Methods[methodName(m)],
			})
		}
	}
	return rows
}

// labelEscaper applies the text format's only label-value escapes:
// backslash, double quote and line feed.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labels renders name/value pairs as a label list without braces,
// e.g. venue="mall",method="asyn". Every label value goes through
// here.
func labels(pairs ...string) string {
	var sb strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(pairs[i])
		sb.WriteString(`="`)
		labelEscaper.WriteString(&sb, pairs[i+1])
		sb.WriteByte('"')
	}
	return sb.String()
}

// writeReasonMetrics renders the cumulative decision-provenance
// counters: why queries missed the caches and why plan members ran
// solo, per (venue, method, reason). Reasons with zero counts are
// omitted so the families stay proportional to what actually happened.
func writeReasonMetrics(sb *strings.Builder, rows []pooledRow) {
	families := []struct {
		name, help string
		miss       bool
	}{
		{"indoorpath_reason_miss_total",
			"Cache misses by provenance reason, per venue and engine method.", true},
		{"indoorpath_reason_solo_total",
			"Plan members that ran a dedicated engine search, by solo reason.", false},
	}
	for _, fam := range families {
		fmt.Fprintf(sb, "# HELP %s %s\n", fam.name, fam.help)
		fmt.Fprintf(sb, "# TYPE %s counter\n", fam.name)
		for _, r := range rows {
			for _, rc := range r.doc.Reasons.Counts() {
				if rc.Count == 0 || rc.Reason.IsMiss() != fam.miss {
					continue
				}
				fmt.Fprintf(sb, "%s{%s,%s} %d\n",
					fam.name, r.labels, labels("reason", rc.Reason.String()), rc.Count)
			}
		}
	}
}

// writeLatencyMetrics renders the whole-request and per-stage latency
// histogram families. Request series appear per (venue, method,
// outcome) once touched, in deterministic key order; stage series
// always appear, in stage-pipeline order.
func writeLatencyMetrics(sb *strings.Builder, sn statsSnapshot) {
	fmt.Fprintf(sb, "# HELP indoorpath_request_seconds End-to-end request latency per venue, engine method and outcome.\n")
	fmt.Fprintf(sb, "# TYPE indoorpath_request_seconds histogram\n")
	for _, k := range obs.SortedRequestKeys(sn.requests) {
		writeHistogramSeries(sb, "indoorpath_request_seconds",
			labels("venue", k.Venue, "method", k.Method, "outcome", k.Outcome), sn.requests[k])
	}
	fmt.Fprintf(sb, "# HELP indoorpath_stage_seconds Time spent per request-pipeline stage, process-wide.\n")
	fmt.Fprintf(sb, "# TYPE indoorpath_stage_seconds histogram\n")
	for _, stage := range obs.StageNames() {
		writeHistogramSeries(sb, "indoorpath_stage_seconds", labels("stage", stage), sn.stages[stage])
	}
}

// effortMetrics are the per-search engine-effort histogram families:
// count-valued distributions (one observation per engine run), so the
// _sum lines carry raw counts, not seconds.
var effortMetrics = []struct {
	name  string
	help  string
	value func(service.EffortSnapshot) obs.HistogramSnapshot
}{
	{"indoorpath_engine_effort_pops",
		"Heap pops per engine search.",
		func(e service.EffortSnapshot) obs.HistogramSnapshot { return e.Pops }},
	{"indoorpath_engine_effort_settled",
		"Nodes settled per engine search.",
		func(e service.EffortSnapshot) obs.HistogramSnapshot { return e.Settled }},
	{"indoorpath_engine_effort_relaxations",
		"Edge relaxations per engine search.",
		func(e service.EffortSnapshot) obs.HistogramSnapshot { return e.Relaxations }},
	{"indoorpath_engine_effort_tv_checks",
		"Temporal-variation (door interval) checks per engine search.",
		func(e service.EffortSnapshot) obs.HistogramSnapshot { return e.TVChecks }},
}

// writeEffortMetrics renders the per-search engine-effort histograms
// per (venue, method), from the same snapshot as the pool counters, in
// the deterministic pool-metric order.
func writeEffortMetrics(sb *strings.Builder, rows []pooledRow) {
	for _, md := range effortMetrics {
		fmt.Fprintf(sb, "# HELP %s %s\n", md.name, md.help)
		fmt.Fprintf(sb, "# TYPE %s histogram\n", md.name)
		for _, r := range rows {
			writeHistogramSeries(sb, md.name, r.labels, md.value(r.doc.EngineEffort))
		}
	}
}

// writeHistogramSeries renders one histogram in Prometheus text
// format: cumulative _bucket lines, the +Inf bucket, _sum and _count.
// lbls is the rendered label list (see labels).
func writeHistogramSeries(sb *strings.Builder, name, lbls string, snap obs.HistogramSnapshot) {
	cum := int64(0)
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(sb, "%s_bucket{%s,%s} %d\n",
			name, lbls, labels("le", strconv.FormatFloat(bound, 'g', -1, 64)), cum)
	}
	if len(snap.Counts) > len(snap.Bounds) {
		cum += snap.Counts[len(snap.Bounds)]
	}
	fmt.Fprintf(sb, "%s_bucket{%s,%s} %d\n", name, lbls, labels("le", "+Inf"), cum)
	fmt.Fprintf(sb, "%s_sum{%s} %g\n", name, lbls, snap.SumSeconds)
	fmt.Fprintf(sb, "%s_count{%s} %d\n", name, lbls, cum)
}

// coalesceMetrics are the counter families over the standing
// coalescers' stats (the hold-time histogram is rendered separately).
var coalesceMetrics = []struct {
	name  string
	help  string
	value func(coalesce.Stats) int64
}{
	{"indoorpath_coalesce_queries_total",
		"Solo route requests accepted by the standing coalescer.",
		func(s coalesce.Stats) int64 { return s.Queries }},
	{"indoorpath_coalesce_flushes_total",
		"Coalescer windows flushed (singleton windows included).",
		func(s coalesce.Stats) int64 { return s.Flushes }},
	{"indoorpath_coalesce_groups_total",
		"Coalesced flushes: windows that accumulated two or more solo requests.",
		func(s coalesce.Stats) int64 { return s.Groups }},
	{"indoorpath_coalesce_answers_total",
		"Solo requests answered out of a coalesced (multi-request) flush.",
		func(s coalesce.Stats) int64 { return s.Answers }},
}

// writeCoalesceMetrics renders the coalescer counters and the
// hold-time histogram in Prometheus text format, from the same
// snapshot the rest of the scrape uses. Series appear for every
// (venue, pooled method) whose coalescer exists — i.e. that has routed
// at least once — in the same deterministic order as the pool metrics.
func writeCoalesceMetrics(sb *strings.Builder, rows []pooledRow) {
	var coal []pooledRow
	for _, r := range rows {
		// A coalescer's stats always carry its hold histogram's bounds.
		if r.doc.Coalesce.Hold.Bounds != nil {
			coal = append(coal, r)
		}
	}
	for _, md := range coalesceMetrics {
		fmt.Fprintf(sb, "# HELP %s %s\n", md.name, md.help)
		fmt.Fprintf(sb, "# TYPE %s counter\n", md.name)
		for _, r := range coal {
			fmt.Fprintf(sb, "%s{%s} %d\n", md.name, r.labels, md.value(r.doc.Coalesce))
		}
	}
	fmt.Fprintf(sb, "# HELP indoorpath_coalesce_hold_seconds Time a solo request was held between arrival and its flush starting.\n")
	fmt.Fprintf(sb, "# TYPE indoorpath_coalesce_hold_seconds histogram\n")
	for _, r := range coal {
		writeHistogramSeries(sb, "indoorpath_coalesce_hold_seconds", r.labels, r.doc.Coalesce.Hold)
	}
}
