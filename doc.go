// Package indoorpath is a Go implementation of indoor shortest-path
// queries for venues with temporal variations, reproducing:
//
//	Tiantian Liu, Zijin Feng, Huan Li, Hua Lu, Muhammad Aamir Cheema,
//	Hong Cheng, Jianliang Xu. "Shortest Path Queries for Indoor Venues
//	with Temporal Variations." ICDE 2020, pp. 2014–2017.
//
// Indoor entities such as doors open and close over the day; an
// ITSPQ(ps, pt, t) query returns the valid shortest indoor path from ps
// to pt departing at time t, such that every door on the path is open
// when the walker reaches it (no waiting) and no private partition is
// traversed except the ones containing the endpoints.
//
// The library provides:
//
//   - an indoor space model (partitions, directional doors, active time
//     intervals) with a builder API and JSON serialisation;
//   - the IT-Graph composite index with per-checkpoint topology
//     snapshots;
//   - the ITSPQ engine with the paper's synchronous (ITG/S) and
//     asynchronous (ITG/A) temporal checks, a temporal-unaware static
//     baseline, and an earliest-arrival router with waiting tolerance;
//   - a concurrent query-serving layer (NewPool): warm engines in a
//     sync.Pool over one shared graph, batch fan-out with
//     identical-query deduplication, per-(source partition, target
//     partition, checkpoint slot) exact result caching, an opt-in
//     validity-window temporal result cache for cross-time cache hits,
//     and an opt-in point-free door-to-door skeleton store that
//     composes answers for previously-unseen endpoint points
//     (internal/tcache);
//   - a shared-execution batch planner (PoolOptions.SharedBatch,
//     internal/batchplan): batches are partitioned into shared-endpoint
//     groups and each group is answered by one multi-target engine run
//     (Engine.RouteMany / RouteManyTo) instead of one search per query;
//   - an HTTP/JSON query daemon (NewServer + cmd/itspqd): a multi-venue
//     registry of serving pools behind route/batch/profile endpoints,
//     with live door-schedule updates and hot venue reload over the
//     wire;
//   - a service-query layer: single-source valid distances, k-nearest
//     open partitions, day profiles, path validity windows and what-if
//     schedule re-planning;
//   - synthetic venue/ATI/query generators matching the paper's
//     evaluation setup, the hand-encoded running example of the paper's
//     Figure 1, and hospital/office presets;
//   - an experiment harness regenerating every figure of the paper's
//     evaluation.
//
// # Quick start
//
//	b := indoorpath.NewBuilder("demo")
//	hall := b.AddPartition("hall", indoorpath.HallwayPartition, indoorpath.NewRect(0, 0, 20, 10, 0))
//	shop := b.AddPartition("shop", indoorpath.PublicPartition, indoorpath.NewRect(20, 0, 30, 10, 0))
//	door := b.AddDoor("door", indoorpath.PublicDoor, indoorpath.Pt(20, 5, 0),
//		indoorpath.MustSchedule("[8:00, 16:00)"))
//	b.ConnectBi(door, hall, shop)
//	venue := b.MustBuild()
//
//	g, _ := indoorpath.NewGraph(venue)
//	engine := indoorpath.NewEngine(g, indoorpath.Options{Method: indoorpath.MethodAsyn})
//	path, _, err := engine.Route(indoorpath.Query{
//		Source: indoorpath.Pt(2, 5, 0),
//		Target: indoorpath.Pt(25, 5, 0),
//		At:     indoorpath.MustParseTime("12:00"),
//	})
//	if err == nil {
//		fmt.Println(path.Format(venue), path.Length)
//	}
//
// # The search engine
//
// Every search an Engine runs — Route, the shared RouteMany and
// RouteManyTo runs, BuildSkeletonFamily, the WaitingRouter's earliest-
// arrival search and SingleSource — is one pass of a single door-graph
// Dijkstra kernel (Algorithm 1). A search names four hooks: its seed
// (a point, or an entry door for a skeleton build), its target policy
// (Route's virtual target node, one best entry per grouped query,
// every anchor door of the target partition, or none for
// SingleSource's run to exhaustion), its direction (leave doors
// forward, or enter doors in reverse for a destination-rooted run) and
// its door-crossing hook. The hook returns the label at which a door is
// crossed, or refuses it: the walked distance when the method's
// TV_Check or a skeleton slot's frozen openness lets the walker
// through, and for the waiting search the crossing instant, the door's
// next opening after the walk reaches it. So the waiting search's
// labels are seconds of day, not metres; its path length is replayed
// leg by leg along the answer. Only OracleShortest, the exhaustive
// reference the tests compare against, keeps its own loop. Every search
// breaks ties one way: among equal labels a door, Route's virtual
// target and a shared run's goal keep the lowest predecessor handle
// (the source point ranks above every door), and the heap pops equal
// keys in handle order. So an answer never depends on the order in
// which a search pushed its doors.
//
// Route is goal-directed (A*): its heap key for a door is the walked
// distance plus a lower bound on the distance still to walk, h(door) =
// α · (XY distance to the target + c · |floor difference|), and the
// target node's key is its walked distance. dmat.Build derives c, the
// smallest cross-floor matrix entry per floor changed, and α, the
// largest factor ≤ 1 that keeps every matrix entry at or above the
// bound, in the same pass that builds the matrices, and
// Graph.WithSchedules shares both with them; on the mall c = 20 m and
// α = 1. Point legs are planar on one floor, so they satisfy the bound
// as well. The bound is consistent, so every door settles with the
// label Algorithm 1 gives it and every TV_Check sees the same arrival;
// with the tie rule the answers are byte-identical, and only the effort
// counters fall (about 3× fewer pops on the mall). α is shrunk by a
// relative margin of 1e-9: with α exactly 1, doors on one line make a
// predecessor's key equal its successor's in real numbers, and float
// rounding can invert the two. Options.NoGoalBound restores Algorithm
// 1's order, which the paper's figures measure. Every other search —
// RouteMany, RouteManyTo, skeleton builds, the waiting search,
// SingleSource, and Route under the SinglePartitionExpansion ablation,
// whose answers depend on expansion order — keeps the plain order.
//
// The working set is flat: per-door label and parent slices, epoch
// stamps for the seen, settled and visited marks, and a binary heap
// indexed by a slice, all allocated on an engine's first search and
// reused by every later one. A warm engine's Route or waiting route
// allocates only the returned Path and its three slices, and a skeleton
// build only the family and its chains. A schedule change
// (Graph.WithSchedules) allocates a new door for each updated door
// and shares every other door; it adjusts the counted checkpoint
// boundaries by the updated doors alone, starts an empty lazy
// snapshot series, and shares the distance matrices, which schedules
// do not affect.
//
// # Concurrent serving
//
// A single Engine keeps reusable search state and is confined to one
// goroutine; the Graph underneath it is immutable and safe for any
// number of concurrent readers (snapshots materialise on first use
// behind a mutex, with lock-free steady-state lookups). NewPool wraps
// that split into a serving layer:
//
//	pool := indoorpath.NewPool(g, indoorpath.PoolOptions{
//		Engine:  indoorpath.Options{Method: indoorpath.MethodAsyn},
//		Workers: 8,
//	})
//	path, _, err := pool.Route(q)      // safe from any goroutine
//	results := pool.RouteBatch(batch)  // fan-out + dedup + caching
//
// Pool.Route answers exactly as Engine.Route would; cached results are
// shared pointers and must be treated as immutable. Live schedule
// updates go through Pool.UpdateSchedules (or Pool.SetGraph), which
// atomically swap the graph and flush the cache without draining the
// server.
//
// # Validity-window caching
//
// The exact cache hits only on identical queries, so a time-sweep or
// rush-hour workload — one OD pair asked at many nearby departures —
// gets near-zero reuse. PoolOptions.WindowCache enables the temporal
// result cache (internal/tcache): each found no-waiting answer is
// stored with the departure interval over which a fresh search
// provably returns the same doors, partitions and length
// (AnswerWindow: the path's ValidityWindow intersected with the
// constant-topology clamp that keeps the departure and the whole walk
// inside one checkpoint slot), and any later departure inside a stored
// window is served without a search:
//
//	pool := indoorpath.NewPool(g, indoorpath.PoolOptions{
//		Engine:      indoorpath.Options{Method: indoorpath.MethodAsyn},
//		WindowCache: true,
//	})
//
// Invariants: windows cover no-waiting found paths only; a served
// answer recomputes every arrival for the query's own departure from
// the stored cumulative distances (bit-identical to engine
// arithmetic — the original instants are never reused); a schedule
// swap drops the whole store with the backend, and apart from that
// only capacity eviction removes a window. Results carry provenance
// (BatchResult.Hit: "exact" | "window" | "skeleton" | "miss"),
// PoolStats counts WindowHits, and BenchmarkPoolRouteSweep measures
// the effect (the exact cache runs one search per sweep departure; the
// window cache runs roughly one per checkpoint slot).
//
// # Point-free answers
//
// Both caches above key on exact endpoint POINTS, so a neighborhood
// crowd — many walkers between the same two rooms, no two standing on
// the same spot — scores zero reuse: every jittered endpoint is a
// fresh key. PoolOptions.SkeletonCache (itspqd -skeleton-cache) adds
// the point-free layer: a miss on a pair the pool has seen before
// builds the pair's door-to-door SKELETON family — the door chains
// with cumulative door-to-door distances that remain once the
// point-dependent first and last legs are stripped — keyed by (source
// partition, target partition, checkpoint slot). The pool's hot-pair
// table (the top pairs /statsz serves) decides: a build costs one
// search per entry door of the source partition, so a pair queried
// only once never pays for one, and a pair's first miss only enters it
// into the table. The table outlives schedule swaps, so after a swap a
// known pair rebuilds its family on its first miss. A later query
// between ANY points of the same partition pair
// and slot is answered by composition: first leg = straight walk from
// the new source to the chain's entry door, skeleton legs replayed
// from the stored cumulative distances, last leg = straight walk from
// the exit door to the new target, every arrival re-derived with
// bit-identical engine arithmetic and every door re-checked against
// the slot's schedule snapshot.
//
// Soundness is certify-or-refuse. A family is exhaustive, not a
// sample: it holds, for EVERY open entry door of the source partition,
// the best frozen-topology chain to every reachable anchor door of the
// target partition (within a checkpoint slot every door's state is
// constant, so slot-start openness is openness throughout), and
// composition minimises first + chain + last over all of them — which
// is exactly the optimum a fresh search would find, whatever the
// endpoint positions. When the composed answer cannot be certified
// byte-identical to a fresh run — the departure falls outside the
// family's slot window, no chain reaches both points with finite
// legs, the walk would cross the slot's closing checkpoint, or two
// chains tie exactly for the minimum (the engine's winner would
// depend on settle order) — the probe REFUSES and the query falls
// through to a full engine search (miss reason
// "skeleton_uncertified"), never to an approximate answer.
//
// Probe order is exact cache, then validity windows, then skeletons,
// then the engine; provenance rides the wire as "hit":"skeleton",
// PoolStats counts SkeletonHits (the /statsz partition invariant
// becomes exact + window + skeleton + deduped + misses == queries),
// /statsz reports skeleton-store occupancy and per-pair day coverage,
// and a schedule swap drops the store with everything else: a family
// built on the old graph can only land in the retired store, exactly
// like a window. Two benchmarks self-check the layer in CI:
// BenchmarkPoolRouteNeighborhood serves a 256-query jittered crowd
// between one hot partition pair with a few engine searches instead of
// 256, and BenchmarkPoolRouteScatter serves 256 queries over distinct
// pairs without building a single family.
//
// # Shared execution
//
// The paper's workloads are many-queries-few-endpoints: rush-hour
// crowds heading to one gate, boarding calls, mall openings. Dedup and
// the caches only help when queries repeat; PoolOptions.SharedBatch
// goes further and makes distinct queries share searches (after Mahmud
// et al., "Shared Execution of Path Queries on Road Networks"). The
// planner (internal/batchplan) partitions each RouteBatch into groups
// with a common endpoint — same source point, departure and speed for
// the temporal methods; the time-blind static method merges departures
// and also groups by destination — and each group is answered by ONE
// engine run: Engine.RouteMany keeps one forward temporal search
// expanding past the first target until every grouped target's entry
// is settled, then reconstructs one path per target;
// Engine.RouteManyTo serves static destination groups with one reverse
// run over the arc-reversed door graph (temporal methods fall back to
// source grouping — a reverse run cannot replay forward arrival-time
// checks).
//
// Soundness of settled-partition expansion: a solo Route prunes
// expansion through its target's partition; the shared run cannot (it
// serves many targets), so it expands through them. Under the
// convex-cell model this preserves every per-target answer — a
// shortest route never leaves and re-enters the target's own partition
// (entering once and walking straight to the target is strictly
// shorter), so every door on a target's answer path keeps its solo
// distance and prev chain, and each target's entry is finalised at the
// exact frontier position where its solo search would have popped the
// virtual target node. Per-target rule-2 exemptions cannot be shared:
// queries whose grouping-relevant endpoint partition is private run
// solo. Stairwells break the convex-cell model, since their doors span
// floors and a point leg to a door on another floor is +Inf: a run
// expanding through a stairwell settles its doors from inside and never
// enters it through the door on the endpoint's floor. So queries whose
// grouping-relevant endpoint lies in a stairwell run solo too, booked
// as private_partition. RouteMany's answers are byte-identical to a
// sequential per-query engine, exact ties included: the kernel breaks
// every tie by one rule (see "The search engine"), which the shared run
// applies at its goals as Route does at its target. The exception is
// degenerate: a target on its partition's boundary, in line with two of
// the partition's doors, where the run, which expands through the
// partition, can settle the nearer door from inside at an equal length
// and return the other, equally short, answer. A reverse
// RouteManyTo run breaks ties from the target's end, so under an exact
// float-length tie it may return the other, equally shortest answer.
// Shared answers feed the exact and window caches like any search
// result. Stats.SharedRuns / SharedAnswers count the sharing,
// and BenchmarkPoolRouteBatchShared shows a 64-target fan-out served
// by 1 engine search instead of 64.
//
// # Request coalescing
//
// Shared execution only helps queries that arrive in the same
// RouteBatch call; under live traffic shareable singletons arrive
// milliseconds apart on separate requests, each paying a full search.
// NewCoalescer puts a standing accumulator in front of a pool: solo
// Route calls enqueue into a small hold window (CoalescerOptions.Hold,
// default 2ms; the first arrival arms the flush timer) and the held
// queries are flushed as ONE shared-execution batch through
// RouteBatchSummary — planned with the same batchplan grouping keys
// and executed with the same engine primitives, so every caller
// receives exactly the result a solo Pool.Route would have produced
// (byte-identical by the shared-execution soundness argument above).
// Non-shareable arrivals simply plan Solo inside the flush; reaching
// CoalescerOptions.MaxGroup flushes immediately. The semantics:
//
//   - Latency bound: a request waits at most the hold window plus one
//     flush execution; singleton windows flush on the timer and cost
//     nothing but the hold.
//   - Swap atomicity: one flush is one RouteBatchSummary call pinning
//     one pool backend, so a held queue racing
//     SetGraph/UpdateSchedules drains entirely old or entirely new,
//     never a mix.
//   - Provenance and accounting: answers out of a multi-query flush
//     carry Coalesced (and "coalesced" on the HTTP wire);
//     CoalescerStats counts flushes, coalesced groups and answers and
//     keeps a hold-time histogram, surfaced per venue and method on
//     /statsz and /metricsz.
//
// On the daemon, -coalesce (with -coalesce-hold) enables it in front
// of every venue pool and implies -shared-batch;
// BenchmarkServerRouteCoalesced shows a 64-client concurrent
// solo-request burst answered with ~0.016 engine searches per query
// instead of 1.
//
// # HTTP serving
//
// NewServer wraps a VenueRegistry — venue IDs mapped to per-venue,
// per-method serving pools — into an http.Handler; cmd/itspqd is the
// ready-made daemon (graceful shutdown, -venues dir and -preset
// loading, -workers/-cache/-timeout tuning, -window-cache,
// -skeleton-cache, -shared-batch and -coalesce for the optimisations
// above):
//
//	itspqd -addr :8080 -preset hospital,office -venues ./venues
//
// Endpoints:
//
//	GET  /healthz                       liveness + venue count + start time + build
//	GET  /buildz                        build provenance (go version, VCS revision) + uptime
//	GET  /statsz                        per-venue, per-method pool counters, cache
//	                                    occupancy, hot OD pairs, store coverage and
//	                                    per-search engine effort; filters ?venue= ?method=
//	GET  /metricsz                      the same counters, Prometheus text format
//	GET  /tracez                        recent request traces (slowest-K + sampled);
//	                                    filters ?venue= ?method= ?min_ms= ?outcome=
//	GET  /v1/venues                     venue listing
//	POST /v1/venues                     hot venue reload (preset / JSON dir)
//	POST /v1/venues/{id}/route          one ITSPQ query
//	POST /v1/venues/{id}/route:batch    batch fan-out (dedup + cache + shared execution)
//	GET  /v1/venues/{id}/profile        day profile between two points
//	PUT  /v1/venues/{id}/schedules      live door-schedule update
//
// Route a query (times travel both as exact seconds and as "H:MM"
// strings; method is syn | asyn | static | waiting, default asyn):
//
//	curl -X POST localhost:8080/v1/venues/hospital/route \
//	  -d '{"from":{"x":30,"y":10,"floor":0},"to":{"x":5,"y":34,"floor":0},"at":"11:00"}'
//	{"found":true,"path":{"format":"(ps, lobby-er, lobby-corridor, ward-1-door, pt)",
//	 "length_m":39.57,"hops":3,"depart":"11:00","arrive":"11:00:28",...},"stats":{...}}
//
// Batches send {"method":"asyn","queries":[...]} to /route:batch and
// come back positionally aligned, with "shared", "shared_run" and
// "cache_hit" flags and a "hit" provenance ("exact" | "window" |
// "skeleton" | "miss") marking how each entry was served, plus a
// batch-level "cache" summary (queries, exact_hits, window_hits,
// skeleton_hits, searches — engine runs, so one shared run counts once
// — and shared_runs / shared_answers when the planner shared work).
// The daemon flags -window-cache, -skeleton-cache and -shared-batch
// enable the validity-window cache, the point-free skeleton store and
// the shared-execution planner on every pool. "No such routes" is
// a regular answer: HTTP 200 with {"found":false}. Validation failures
// return a structured envelope {"error":{"code":"bad_request",
// "message":"..."}} (codes: bad_request, not_found, not_indoor,
// timeout, too_large, conflict, internal). A request that exceeds the
// server deadline answers 504 "timeout"; a client that disconnects
// first gets nothing (the connection is dead) and is counted
// separately — /statsz "server" reports timeouts and client_gone side
// by side so disconnect waves cannot masquerade as slow searches.
//
// Live schedule updates map door names to ATI lists (null = always
// open, [] = always closed) and apply as one atomic swap per pool —
// concurrent routes keep flowing and each response reflects either the
// old or the new schedule set in full, never a mix:
//
//	curl -X PUT localhost:8080/v1/venues/hospital/schedules \
//	  -d '{"updates":{"ward-1-door":["10:00-18:00"]}}'
//	{"venue":"hospital","doors_updated":1,"epoch":1}
//
// Hot venue reload loads presets or server-local venue-JSON
// directories into the running daemon (IDs as at startup; duplicates
// answer 409 conflict; directory loads are gated to the daemon's
// -venues base directory and disabled without one — remote clients
// must not point the daemon at arbitrary host paths):
//
//	curl -X POST localhost:8080/v1/venues -d '{"preset":"office"}'
//	{"added":["office"],"venues":3}
//
// cmd/itspq doubles as a smoke client: itspq -server http://host:8080
// -venue hospital -from ... prints byte-identically to local mode.
// With -sweep, -to takes several ';'-separated targets — the
// multi-target day sweep is the shared planner's showcase (itspq
// -shared locally, itspqd -shared-batch on the daemon).
//
// # Workload replay
//
// internal/replay (exported as ReplayScenario / RunReplay; CLI
// cmd/itspqreplay) replays a deterministic "day in the venue" against
// a live daemon and writes BENCH_replay.json — the repo's end-to-end
// workload evidence, where every serving optimisation is judged under
// traffic instead of a micro-benchmark:
//
//	itspqreplay -scenario rush-hour -quick                    # self-hosted
//	itspqreplay -scenario flip-storm -addr http://host:8080   # your daemon
//
// A scenario is a declarative phase list: query count, concurrency and
// arrival shape (closed loop, or synchronised waves — the shape that
// exercises the coalescer), an OD skew over named partition pairs, a
// departure-time window, a method mix, an optional hot template set (a
// finite set of repeated query instances — the shape of a flash
// crowd), and optional mid-phase schedule flips (PUT /schedules racing
// the traffic). Built-ins: steady, rush-hour (dawn → rush → flash
// crowd → flip storm → taper), flash-crowd, flip-storm, and
// neighborhood — a six-query scout warms two partition pairs' skeleton
// families, then a 16-wide wave of independently jittered endpoints
// (no template set: every query is a fresh random instance, the shape
// point-keyed caches score zero on) must be answered almost entirely
// by point-free composition. The query
// stream is a pure function of (scenario, seed) — wall-clock numbers
// vary run to run, but two reports with equal stream_fingerprint
// values replayed the identical day, so replay diffs across PRs are
// apples-to-apples (a golden test pins each built-in's fingerprint).
//
// The report records, per phase: latency percentiles (p50/p95/p99/max,
// nearest-rank over every request), error and timeout tallies, answer
// provenance counted from response flags (exact/window hits,
// coalesced, shared-run, deduped), the /statsz counter movement
// (queries, engine searches, cache hits, epoch, coalescer flushes) and
// the headline searches_per_query = engine searches / queries. A
// "process" block scraped from /statsz (start time, uptime,
// goroutines, GOMAXPROCS) proves both scrapes came from one
// uninterrupted daemon.
//
// Verdicts are embedded self-checks — metric, operator, bound —
// evaluated per phase or over the whole run; itspqreplay exits
// non-zero when any fails. The built-ins assert zero errors/timeouts,
// flash-crowd < 0.25 engine searches per query (the sharing stack must
// absorb the crowd), jittered phases (rush, neighborhood) skeleton
// hits > 0 at <= 0.5 engine searches per query (only point-free
// composition can absorb endpoints that never repeat), flip-storm
// zero mixed_answers, and a generous static p99 bound as the CI
// regression gate (job replay-smoke).
//
// mixed_answers is the external atomicity audit: during flip phases
// every answer is compared against sequential-engine oracles computed
// per schedule state, and must match one of the states the daemon
// could legally have been in when it answered (bracketed by the flips
// acknowledged before the query was sent and those initiated before
// its response arrived). An answer matching no legal state would mean
// a response mixed pre- and post-flip schedules — which the serving
// layer's atomic-swap guarantee promises can never happen.
//
// # Observability
//
// Every request through the daemon is measured by internal/obs, a
// dependency-free core of lock-free fixed-bucket duration histograms
// (atomic counters; snapshots are mergeable and subtractable, so
// deltas across scrapes are exact) and per-request span traces. A
// request is split into stages — decode, hold (coalescer wait), probe
// (cache lookup), plan (batch grouping), engine (the search itself),
// store (cache fill) and render — and each stage feeds a shared
// per-stage histogram, so "where does a millisecond go" is answerable
// fleet-wide, not just per slow request. The buckets follow a
// 1–2.5–5 ladder from 10µs to 10s.
//
// /metricsz renders two histogram families in Prometheus text format
// on top of the existing counters:
//
//	indoorpath_request_seconds{venue,method,outcome}   end-to-end request latency
//	indoorpath_stage_seconds{stage}                    per-stage time, all requests
//
// Outcomes are ok, no_route, error, timeout and client_gone, so tail
// latency of failures is separable from the happy path. Every scrape
// of /statsz or /metricsz is built from ONE read of each pool, and the
// counter partition invariant — cache_hits + window_hits +
// skeleton_hits + deduped + misses == queries with misses >= 0 and
// engine_searches <= misses — holds in every scraped body, even
// mid-traffic. Label values on /metricsz carry exactly the text
// format's three escapes (backslash, double quote, line feed).
//
// GET /tracez returns recent traces from a bounded ring: the
// slowest-K requests plus a 1-in-N uniform sample, each a span list
// with stage, start offset and duration, plus venue/method/outcome
// and provenance flags (hit, coalesced, shared_run). A single route
// request can opt in with "trace": true to get the same span
// breakdown inline in its response (solo routes only; batches read
// /tracez). Tracing is opt-in per request and free when off: the
// disabled path is measured at zero additional allocations per route
// (BenchmarkPoolRouteTraceOverhead self-checks this in CI).
//
// cmd/itspqd takes -debug-addr to serve net/http/pprof on a second
// listener — a separate mux and port, so profiling never ships with
// the public API. itspqreplay -v prints a per-phase server-side stage
// breakdown table from the histogram deltas, and BENCH_replay.json
// records per-phase stage totals, server-side latency quantiles and a
// client-vs-server quantile cross-check.
//
// # Decision provenance
//
// The pool counters are cumulative since boot, so a rate over any
// window is the difference (Δ) of two /statsz scrapes — Prometheus
// rate() over /metricsz, or the per-phase deltas itspqreplay records —
// with Δprocess.uptime_sec as the time base. Per venue and method:
//
//   - arrival rate = Δqueries / Δuptime_sec
//   - exact, window and skeleton hit rates = Δcache_hits, Δwindow_hits
//     and Δskeleton_hits / Δqueries
//   - shareability = (Δdeduped + Δshared_answers) / Δqueries
//   - engine searches per query = Δengine_searches / Δqueries
//   - flush fan-out = Δcoalesce.queries / Δcoalesce.flushes
//   - hold utilization = Δcoalesce.hold_sum_nanos /
//     (Δcoalesce.queries × the configured -coalesce-hold)
//
// Decision provenance answers WHY, not just how often: every cache
// miss carries a compact reason code — uncacheable, no_exact_entry,
// window_family_absent, outside_windows (a window series exists but
// the departure falls outside every cached interval),
// skeleton_uncertified (a skeleton family covers the departure but
// could not certify a composition for these points) — and every plan
// member that ran a dedicated engine search records why it could not
// share: private_partition (an endpoint partition a shared run cannot
// expand through, private or a stairwell), singleton_group, or
// ablation (sharing disabled). Miss responses carry the code inline as
// "explain"; cumulative per-reason counters ride /statsz ("reasons",
// whose miss_epoch_raced key is always 0) and /metricsz
// (indoorpath_reason_miss_total / indoorpath_reason_solo_total), and
// probe/plan spans attach the reason to traces. itspqreplay records
// per-phase reason deltas in BENCH_replay.json, and -v prints the
// reasons table.
//
// # Workload and cache introspection
//
// GET /statsz also answers "what is the cache actually holding, and
// for whom?" Each venue carries one document per method key under
// "methods", gathered in ONE read of the pool per scrape. A pooled
// method's document holds its pool counters (queries, hits, misses,
// reasons), exact-cache, window-store and skeleton-store occupancy vs
// capacity with monotone capacity-eviction counters (cache_*,
// window*, skel_*: they survive schedule-update swaps and also ride
// /metricsz as indoorpath_cache_* / indoorpath_window_* /
// indoorpath_skeleton_* series), and:
//
//   - "top_pairs": a hot-pair table from a bounded space-saving
//     heavy-hitter counter (obs.TopK — always on, allocation-free per
//     feed; BenchmarkTopKFeed self-checks this in CI) tallying per
//     (source partition, target partition) pair the queries,
//     exact/window/skeleton hits, batch dedups, engine searches and
//     summed search effort, each tally exact up to the row's
//     err_bound, with "pair_capacity" the table's slot budget;
//   - "window_pairs": the window store's per-OD-pair coverage rows —
//     window and endpoint-family counts plus a day-coverage fraction,
//     the mean per-family share of the 24h departure axis covered by
//     stored validity windows (windows within a family are disjoint,
//     so the fraction lies in [0, 1]);
//   - "skeleton_pairs": the skeleton store's per-pair family and chain
//     counts with whole-pair day coverage;
//   - "engine_effort": per-search engine effort — heap pops, settled
//     nodes, edge relaxations and temporal-variation checks per engine
//     run — in count-valued histograms, exported as
//     indoorpath_engine_effort_{pops,settled,relaxations,tv_checks} on
//     /metricsz, turning "p95 latency rose" into "p95 pops rose:
//     searches got deeper" (or didn't: the engine is fine, the serving
//     layer isn't);
//   - "request_seconds" (once the method has served a request) and
//     "coalesce" (with -coalesce, once the method has routed).
//
// Both coverage listings stop at 64 rows; "window_pairs_total" and
// "skeleton_pairs_total" count every pair, so truncation is never
// silent. The pool is read top pairs, effort, coverage and then its
// counters, queries last, so in every body each pair tally stays <=
// the method's queries and occupancy <= capacity. The waiting method
// and profile requests have no pool: their documents carry only
// "request_seconds". The ?venue= and ?method= filters are strict:
// unknown parameters, unregistered venues and method keys a body
// cannot carry (anything but syn, asyn, static, waiting and profile)
// answer 400 rather than silently matching everything. itspqreplay
// reads the top pairs and effort histograms from the /statsz scrapes
// it takes around every phase and records per-phase "hot_pairs" (top
// movers with share of phase traffic) and "engine_effort" (mean/p95
// pops and TV checks per search) blocks in BENCH_replay.json; -v
// prints both tables.
//
// See the examples directory for runnable programs and DESIGN.md for
// the paper-to-code mapping.
package indoorpath
