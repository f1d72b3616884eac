// Package coalesce implements the standing cross-batch request
// coalescer of the serving layer: solo Route calls that arrive within
// a few milliseconds of each other are accumulated into one batch and
// flushed through service.Pool.RouteBatchSummary, so shareable
// singletons (same source point, departure and speed — or, for the
// static method, a shared destination) that arrive on separate HTTP
// requests are answered by ONE engine run instead of one each.
//
// The shared-execution batch planner (internal/batchplan, PR 4) only
// helps queries that arrive in the same RouteBatch call; under
// production-style traffic shareable queries arrive milliseconds apart
// on separate requests. The coalescer closes that gap: it trades a
// bounded hold latency (Options.Hold, a few milliseconds) for
// cross-request sharing, the classic request-coalescing pattern from
// batch-scheduling systems.
//
// Guarantees:
//
//   - Every caller receives exactly the service.Result a solo
//     Pool.Route would have produced: a flush is planned with the same
//     internal/batchplan grouping keys and executed with the same
//     engine primitives (RouteMany / RouteManyTo), so the PR 4
//     soundness argument applies unchanged — answers are byte-identical
//     whenever the shortest valid path is unique.
//   - Added latency is bounded: a query waits at most Options.Hold
//     (the flush timer is armed when the first query of a window
//     enqueues) plus the flush's own execution time, and a window
//     flushes immediately when Options.MaxGroup queries are held.
//   - Flushes are swap-atomic: one flush is one RouteBatchSummary
//     call, which pins one pool backend for the whole batch, so a
//     flush racing SetGraph/UpdateSchedules reflects entirely the old
//     or entirely the new graph — a held queue drains old-or-new,
//     never a mix.
//
// The pool should have service.Options.SharedBatch enabled: without
// the planner a flush still deduplicates identical queries but cannot
// share engine runs across distinct targets, which is most of the win.
package coalesce

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"indoorpath/internal/core"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
)

// Defaults for Options zero values.
const (
	// DefaultHold is the accumulation window: how long the first query
	// of a group waits for companions before the flush timer fires.
	DefaultHold = 2 * time.Millisecond
	// DefaultMaxGroup caps a group's size; reaching it flushes
	// immediately, without waiting out the hold window.
	DefaultMaxGroup = 64
)

// HoldBucketBounds are the upper bounds, in seconds, of the hold-time
// histogram buckets (a final overflow bucket catches everything
// above). The bounds bracket the useful hold range: DefaultHold sits
// in the second bucket, and anything beyond 100ms means the flush
// path is stalled.
var HoldBucketBounds = [...]float64{0.001, 0.002, 0.005, 0.010, 0.025, 0.100}

// Options tune a Coalescer. The zero value is a usable default.
type Options struct {
	// Hold is the accumulation window; <= 0 means DefaultHold. The
	// first query to enqueue into an empty coalescer arms a flush
	// timer for Hold; every query that arrives before it fires joins
	// the same flush.
	Hold time.Duration
	// MaxGroup flushes a group as soon as it holds this many queries,
	// bounding both group size and the worst-case latency pile-up
	// behind one flush; <= 0 means DefaultMaxGroup.
	MaxGroup int
}

// Stats are cumulative coalescer counters, safe to read concurrently
// and JSON-serialisable for the daemon's stats endpoint.
type Stats struct {
	// Queries counts Route calls accepted.
	Queries int64 `json:"queries"`
	// Flushes counts groups executed (including singletons whose hold
	// window expired without company).
	Flushes int64 `json:"flushes"`
	// Groups counts coalesced flushes: flushes that held >= 2 queries,
	// i.e. windows in which cross-request accumulation actually
	// happened.
	Groups int64 `json:"coalesced_groups"`
	// Answers counts queries answered out of a coalesced flush — each
	// was delivered for a fraction of a dedicated engine search
	// whenever the batch planner shared or deduplicated it.
	Answers int64 `json:"coalesced_answers"`
	// Hold is the per-answer hold-time histogram (time from enqueue to
	// flush start) over HoldBucketBounds.
	Hold obs.HistogramSnapshot `json:"hold_seconds"`
	// HoldSumNanos is the total held time across all answers (Hold's
	// sum in nanoseconds).
	HoldSumNanos int64 `json:"hold_sum_nanos"`
	// MaxHoldNanos is the largest single hold observed.
	MaxHoldNanos int64 `json:"max_hold_nanos"`
}

// waiter is one enqueued query: its promise channel (buffered, so a
// flush never blocks on delivery — e.g. when the HTTP handler that
// asked has already timed out and gone away) and its arrival time.
type waiter struct {
	q   core.Query
	ch  chan service.Result
	enq time.Time
	tr  *obs.Trace // nil unless the caller is traced
}

// Coalescer is a standing accumulator in front of one service.Pool
// (i.e. one venue and engine method). All methods are safe for
// concurrent use. A Coalescer has no background goroutine of its own:
// flush timers are armed per window and pending queries are always
// answered, so there is nothing to close or drain on shutdown.
type Coalescer struct {
	pool     *service.Pool
	hold     time.Duration
	maxGroup int

	mu      sync.Mutex
	pending []waiter
	// gen identifies the window currently accumulating in pending; a
	// flush timer only acts on the window it was armed for, so a timer
	// outliving its window (flushed early by MaxGroup) cannot cut a
	// newer window short.
	gen uint64

	queries atomic.Int64
	flushes atomic.Int64
	groups  atomic.Int64
	answers atomic.Int64
	holds   *obs.Histogram
	holdMax atomic.Int64
}

// New builds a Coalescer over a pool. For cross-query sharing the pool
// should have service.Options.SharedBatch enabled (see the package
// comment); the coalescer works — dedup only — without it.
func New(pool *service.Pool, opts Options) *Coalescer {
	if opts.Hold <= 0 {
		opts.Hold = DefaultHold
	}
	if opts.MaxGroup <= 0 {
		opts.MaxGroup = DefaultMaxGroup
	}
	return &Coalescer{pool: pool, hold: opts.Hold, maxGroup: opts.MaxGroup,
		holds: obs.NewHistogram(HoldBucketBounds[:])}
}

// Pool returns the pool flushes execute on.
func (c *Coalescer) Pool() *service.Pool { return c.pool }

// Route answers one query, blocking until its window flushes: at most
// the hold window plus the flush's execution time. The result is
// exactly what a solo Pool.Route would have returned, with Coalesced
// set when the flush held more than one query.
func (c *Coalescer) Route(q core.Query) service.Result {
	return c.RouteTraced(nil, q)
}

// RouteTraced is Route recording observability spans onto tr: a hold
// span from enqueue to flush start, then the flush's batch spans
// (plan/probe/engine/store) adopted from the flush's shared
// collector. Since one flush serves every waiter of a window, the
// shared spans appear in each waiter's trace but feed the stage
// histograms exactly once. Nil tr is the untraced fast path.
func (c *Coalescer) RouteTraced(tr *obs.Trace, q core.Query) service.Result {
	c.queries.Add(1)
	w := waiter{q: q, ch: make(chan service.Result, 1), enq: time.Now(), tr: tr}
	c.mu.Lock()
	c.pending = append(c.pending, w)
	if len(c.pending) == 1 && c.maxGroup > 1 {
		gen := c.gen
		time.AfterFunc(c.hold, func() { c.flushGen(gen) })
	}
	var batch []waiter
	if len(c.pending) >= c.maxGroup {
		batch = c.take()
	}
	c.mu.Unlock()
	if batch != nil {
		c.flush(batch)
	}
	return <-w.ch
}

// flushGen is the timer path: flush the pending window iff it is still
// the one the timer was armed for.
func (c *Coalescer) flushGen(gen uint64) {
	c.mu.Lock()
	if c.gen != gen || len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	batch := c.take()
	c.mu.Unlock()
	c.flush(batch)
}

// take claims the pending window. Callers hold mu.
func (c *Coalescer) take() []waiter {
	batch := c.pending
	c.pending = nil
	c.gen++
	return batch
}

// flush answers one claimed window with a single RouteBatchSummary
// call (one backend pin: the whole flush is atomic under graph swaps)
// and delivers each result to its waiter.
func (c *Coalescer) flush(batch []waiter) {
	start := time.Now()
	qs := make([]core.Query, len(batch))
	// The flush's work is shared by every waiter, so its spans are
	// recorded once on a collector (built from the first traced
	// waiter) and adopted into each waiter's trace afterwards; each
	// waiter's hold span is its own real wait.
	var collector *obs.Trace
	for i, w := range batch {
		qs[i] = w.q
		w.tr.Add(obs.StageHold, w.enq, start.Sub(w.enq), nil)
		if collector == nil {
			collector = w.tr.NewCollector()
		}
	}
	rs, _ := c.pool.RouteBatchSummaryTraced(collector, qs)
	// Counter write order (flushes, then answers, then groups) pairs
	// with the Stats read order so that a concurrent snapshot always
	// satisfies Groups <= Flushes and Answers >= 2*Groups.
	c.flushes.Add(1)
	coalesced := len(batch) >= 2
	if coalesced {
		c.answers.Add(int64(len(batch)))
		c.groups.Add(1)
	}
	for i, w := range batch {
		c.observeHold(start.Sub(w.enq))
		r := rs[i]
		r.Coalesced = coalesced
		w.tr.Adopt(collector)
		w.ch <- r
	}
}

// observeHold records one answer's enqueue-to-flush latency.
func (c *Coalescer) observeHold(d time.Duration) {
	c.holds.Observe(d)
	for {
		max := c.holdMax.Load()
		if int64(d) <= max || c.holdMax.CompareAndSwap(max, int64(d)) {
			return
		}
	}
}

// Stats returns a snapshot of the cumulative counters. The counters
// are independent atomics, not one consistent snapshot; Groups is read
// first and Answers/Flushes/Queries after it (mirroring the write
// order in flush: queries at enqueue, then flushes, answers, groups)
// so that every snapshot satisfies Groups <= Flushes, Answers >=
// 2*Groups and Answers <= Queries even while flushes are in flight.
func (c *Coalescer) Stats() Stats {
	groups := c.groups.Load()
	answers := c.answers.Load()
	flushes := c.flushes.Load()
	hold := c.holds.Snapshot()
	return Stats{
		Queries:      c.queries.Load(),
		Flushes:      flushes,
		Groups:       groups,
		Answers:      answers,
		Hold:         hold,
		HoldSumNanos: int64(math.Round(hold.SumSeconds * float64(time.Second))),
		MaxHoldNanos: c.holdMax.Load(),
	}
}
