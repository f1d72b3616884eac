package service

import (
	"sync"

	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/temporal"
)

// cacheKey addresses one cache bucket: the (source partition, target
// partition, checkpoint slot) triple of the queries it holds. Eviction
// sheds whole buckets, so the key sets how much the cache drops at a
// time: every exact-query entry for one OD region within one
// constant-topology slot ages out together.
type cacheKey struct {
	src  model.PartitionID
	tgt  model.PartitionID
	slot int
}

// entryKey identifies one exact query inside a bucket. Entries match on
// the full normalised query identity — source and target points, time
// of day and walking speed — because two queries that differ only
// within a partition, or whose walks cross slot boundaries at different
// instants, can legitimately have different answers. The bucket key
// narrows the search; the entry key preserves exact ITSPQ semantics.
type entryKey struct {
	src, tgt geom.Point
	at       temporal.TimeOfDay
	speed    float64
}

// resultCache is a bounded, concurrency-safe map from (bucket, entry)
// to query outcomes. Eviction drops whole buckets (arbitrary order via
// map iteration) until the entry count is back under capacity — crude,
// but O(1) amortised and sufficient for a steady-state serving cache
// where whole OD-pair/slot regions age out together. Eviction is the
// only way an entry leaves: a schedule swap retires the whole cache
// with the pool's backend.
type resultCache struct {
	mu      sync.RWMutex
	cap     int
	size    int
	evicted int64 // entries shed by capacity eviction
	buckets map[cacheKey]map[entryKey]Result
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, buckets: make(map[cacheKey]map[entryKey]Result)}
}

func (c *resultCache) get(key cacheKey, ekey entryKey) (Result, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.buckets[key][ekey]
	return r, ok
}

// put stores an outcome, evicting down to capacity.
func (c *resultCache) put(key cacheKey, ekey entryKey, r Result) {
	// Never republish transient flags from the computing caller: a
	// later get re-labels the outcome as its own (exact) hit.
	r.CacheHit = false
	r.Shared = false
	r.SharedRun = false
	r.Hit = HitMiss
	r.Explain = obs.ReasonNone
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.buckets[key]
	if !ok {
		b = make(map[entryKey]Result)
		c.buckets[key] = b
	}
	if _, exists := b[ekey]; !exists {
		c.size++
	}
	b[ekey] = r
	for c.size > c.cap {
		c.evictLocked(key, ekey)
	}
}

// evictLocked drops one bucket other than keep (the bucket just written
// to). When keep is the only bucket left it sheds that bucket's entries
// individually instead, sparing the entry just written so a hot bucket
// larger than the capacity still serves its latest results.
func (c *resultCache) evictLocked(keep cacheKey, keepE entryKey) {
	for k, b := range c.buckets {
		if k == keep {
			if len(c.buckets) > 1 {
				continue
			}
			for ek := range b {
				if ek == keepE {
					continue
				}
				delete(b, ek)
				c.size--
				c.evicted++
				if c.size <= c.cap {
					return
				}
			}
			return
		}
		c.size -= len(b)
		c.evicted += int64(len(b))
		delete(c.buckets, k)
		return
	}
}

// usage returns occupancy, capacity and the count of entries shed by
// capacity eviction since construction.
func (c *resultCache) usage() (size, capacity int, evicted int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.size, c.cap, c.evicted
}
