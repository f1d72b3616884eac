package obs

import (
	"sort"
	"sync"
	"time"
)

// RequestKey labels one request-latency histogram.
type RequestKey struct {
	Venue   string
	Method  string
	Outcome string
}

// ObserverOptions tune an Observer; zero values select defaults.
type ObserverOptions struct {
	// Bounds are the histogram bucket upper bounds in seconds
	// (default DefaultBounds).
	Bounds []float64
	// RingCapacity is the total /tracez retention (default 64).
	RingCapacity int
	// SlowK is how many of those slots are reserved for the
	// slowest traces (default 16).
	SlowK int
	// SampleN samples 1 in N non-slow traces into the remaining
	// slots (default 16).
	SampleN int
}

// Observer owns the process-wide stage histograms, the per
// (venue, method, outcome) request histograms and the trace ring.
// All methods are safe for concurrent use and nil-receiver safe.
type Observer struct {
	bounds []float64
	stages [numStages]*Histogram
	ring   *TraceRing

	mu  sync.RWMutex
	req map[RequestKey]*Histogram
}

// NewObserver builds an Observer with the given options.
func NewObserver(opts ObserverOptions) *Observer {
	if opts.Bounds == nil {
		opts.Bounds = DefaultBounds
	}
	if opts.RingCapacity == 0 {
		opts.RingCapacity = 64
	}
	if opts.SlowK == 0 {
		opts.SlowK = 16
	}
	if opts.SampleN == 0 {
		opts.SampleN = 16
	}
	o := &Observer{
		bounds: opts.Bounds,
		ring:   NewTraceRing(opts.RingCapacity, opts.SlowK, opts.SampleN),
		req:    make(map[RequestKey]*Histogram),
	}
	for i := range o.stages {
		o.stages[i] = NewHistogram(o.bounds)
	}
	return o
}

// NewTrace starts a trace whose spans feed o's stage histograms.
// Returns nil (the disabled fast path) on a nil observer.
func (o *Observer) NewTrace() *Trace {
	if o == nil {
		return nil
	}
	return &Trace{obs: o, start: time.Now(), spans: make([]SpanData, 0, 8)}
}

// FinishRequest closes out a request: observes its total latency in
// the (venue, method, outcome) histogram and offers the trace to the
// ring, which builds its doc only if it keeps it. Call it after the
// render span ends, once per request. Nil observer or nil trace is a
// no-op.
func (o *Observer) FinishRequest(t *Trace, info RequestInfo) {
	if o == nil || t == nil {
		return
	}
	total := time.Since(t.start)
	o.histFor(RequestKey{Venue: info.Venue, Method: info.Method, Outcome: info.Outcome}).Observe(total)
	o.ring.offerTrace(t, info, total)
}

func (o *Observer) histFor(k RequestKey) *Histogram {
	o.mu.RLock()
	h := o.req[k]
	o.mu.RUnlock()
	if h != nil {
		return h
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if h = o.req[k]; h == nil {
		h = NewHistogram(o.bounds)
		o.req[k] = h
	}
	return h
}

// StageSnapshots returns one snapshot per stage, keyed by stage name.
func (o *Observer) StageSnapshots() map[string]HistogramSnapshot {
	if o == nil {
		return nil
	}
	out := make(map[string]HistogramSnapshot, numStages)
	for i, h := range o.stages {
		out[Stage(i).String()] = h.Snapshot()
	}
	return out
}

// RequestSnapshots returns one snapshot per (venue, method, outcome)
// histogram that has been touched.
func (o *Observer) RequestSnapshots() map[RequestKey]HistogramSnapshot {
	if o == nil {
		return nil
	}
	o.mu.RLock()
	hists := make(map[RequestKey]*Histogram, len(o.req))
	for k, h := range o.req {
		hists[k] = h
	}
	o.mu.RUnlock()
	out := make(map[RequestKey]HistogramSnapshot, len(hists))
	for k, h := range hists {
		out[k] = h.Snapshot()
	}
	return out
}

// SortedRequestKeys returns the keys of a RequestSnapshots map in
// deterministic (venue, method, outcome) order, for stable text
// exposition.
func SortedRequestKeys(m map[RequestKey]HistogramSnapshot) []RequestKey {
	keys := make([]RequestKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Venue != b.Venue {
			return a.Venue < b.Venue
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		return a.Outcome < b.Outcome
	})
	return keys
}

// Traces returns the current /tracez snapshot.
func (o *Observer) Traces() []*TraceDoc {
	if o == nil {
		return nil
	}
	return o.ring.Snapshot()
}
