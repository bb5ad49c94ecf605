package pack

import (
	"math/rand/v2"
	"sync"
)

// PlanCache stores compiled plans keyed by (local fingerprint, rank);
// each plan additionally records the global fingerprint it was
// compiled under, which is what the collective agreement of planLookup
// verifies. One cache may be shared by every processor of a machine —
// and by several machines at once: the map is mutex-guarded on the
// host side (host bookkeeping, not part of the cost model), and the
// transparent lookup path never acts on a partial rank set (the
// unanimity sum fails unless every rank's stored plan matches the
// current global fingerprint). Entries are never evicted; a changed
// mask changes the fingerprint and simply compiles a new entry. Each
// cache keys its fingerprints with its own random seed, so no caller
// can build masks whose fingerprints collide, in one rank's key or in
// the machine-wide sum.
type PlanCache struct {
	seed   uint64
	mu     sync.Mutex
	plans  map[planKey]*Plan
	hits   int
	misses int
}

type planKey struct {
	fp   uint64
	rank int
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{seed: rand.Uint64(), plans: make(map[planKey]*Plan)}
}

// PlanCacheStats is a snapshot of the cache's hit/miss counters. A hit
// or miss is counted per processor per transparent call (the explicit
// CompilePlan/PlanPack path never touches a cache).
type PlanCacheStats struct {
	Hits   int
	Misses int
	Plans  int
}

// HitRate returns Hits / (Hits + Misses), or 0 with no lookups.
func (s PlanCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Plans: len(c.plans)}
}

func (c *PlanCache) get(fp uint64, rank int) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans[planKey{fp, rank}]
}

func (c *PlanCache) put(fp uint64, rank int, pl *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans[planKey{fp, rank}] = pl
}

func (c *PlanCache) noteHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

func (c *PlanCache) noteMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}
