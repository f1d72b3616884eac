package obs

import (
	"sync"
	"time"
)

// TraceRing is the bounded store behind /tracez. It retains at most
// `capacity` trace docs split in two populations:
//
//   - the K slowest traces seen so far (slowK), evicted only by a
//     slower arrival — the tail you actually want to debug survives
//     arbitrary churn;
//   - a 1-in-sampleN systematic sample of everything else, in a
//     ring buffer of capacity-slowK slots — an unbiased picture of
//     normal traffic.
//
// A doc lands in exactly one population (slow wins), so the total
// never exceeds capacity.
type TraceRing struct {
	mu      sync.Mutex
	slowK   int
	sampleN int
	sampCap int
	slow    []*TraceDoc
	sampled []*TraceDoc
	next    int   // ring write index into sampled
	offered int64 // non-slow offers seen, for 1-in-N selection
}

// NewTraceRing builds a ring retaining the slowK slowest plus a
// 1-in-sampleN sample, capacity docs total. Arguments are clamped to
// sane minimums (capacity >= 1, 0 <= slowK <= capacity, sampleN >= 1).
func NewTraceRing(capacity, slowK, sampleN int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	if slowK < 0 {
		slowK = 0
	}
	if slowK > capacity {
		slowK = capacity
	}
	if sampleN < 1 {
		sampleN = 1
	}
	return &TraceRing{slowK: slowK, sampleN: sampleN, sampCap: capacity - slowK}
}

// Offer submits a finished trace doc. The ring takes ownership: it
// may set the doc's Slow/Sampled flags before storing, and docs are
// immutable afterwards. Docs that are neither slow nor sampled are
// dropped.
func (r *TraceRing) Offer(d *TraceDoc) {
	if r == nil || d == nil {
		return
	}
	r.offer(d.DurationMs, func() *TraceDoc { return d })
}

// offerTrace is Offer for a finished trace whose doc is built only if
// the ring keeps it.
func (r *TraceRing) offerTrace(t *Trace, info RequestInfo, total time.Duration) {
	if r == nil {
		return
	}
	r.offer(durMs(total), func() *TraceDoc { return t.doc(info, total) })
}

// offer decides from the duration alone whether the ring keeps a doc,
// and calls build for the doc only then. build runs under r.mu, so it
// must not call back into the ring.
func (r *TraceRing) offer(durationMs float64, build func() *TraceDoc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.slow) < r.slowK {
		d := build()
		d.Slow = true
		r.slow = append(r.slow, d)
		return
	}
	if r.slowK > 0 {
		mi := 0
		for i := 1; i < len(r.slow); i++ {
			if r.slow[i].DurationMs < r.slow[mi].DurationMs {
				mi = i
			}
		}
		if durationMs > r.slow[mi].DurationMs {
			d := build()
			d.Slow = true
			r.slow[mi] = d
			return
		}
	}
	if r.sampCap == 0 {
		return
	}
	r.offered++
	if r.offered%int64(r.sampleN) != 0 {
		return
	}
	d := build()
	d.Sampled = true
	if len(r.sampled) < r.sampCap {
		r.sampled = append(r.sampled, d)
		return
	}
	r.sampled[r.next] = d
	r.next = (r.next + 1) % r.sampCap
}

// Snapshot returns the retained docs: slowest first (descending
// duration), then the sampled population newest first. The returned
// slice is fresh; the docs are shared but immutable.
func (r *TraceRing) Snapshot() []*TraceDoc {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*TraceDoc, 0, len(r.slow)+len(r.sampled))
	out = append(out, r.slow...)
	// Insertion-sort the slow prefix by descending duration; slowK
	// is small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].DurationMs > out[j-1].DurationMs; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	// Sampled: newest first means walking backwards from the write
	// cursor.
	for i := 0; i < len(r.sampled); i++ {
		idx := r.next - 1 - i
		for idx < 0 {
			idx += len(r.sampled)
		}
		out = append(out, r.sampled[idx%len(r.sampled)])
	}
	return out
}

// Len reports how many docs are currently retained.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slow) + len(r.sampled)
}
