package pl

import (
	"sync/atomic"

	"repro/internal/clockcache"
)

// Result memoization for the processing farm. Repeated analyses of quiet
// periods dominate scientific load (canned views, re-run reports), and an
// analysis delivery is a pure function of its canonical parameters and
// the state of the tables it reads — so a cached delivery keyed by
// (routine, canonical params, data epoch) is valid exactly while those
// tables' commit epochs are unchanged, the same invalidation contract as
// the DM query cache (internal/dm/cache.go). No timers, no explicit
// invalidation: a commit to an input table bumps its epoch and the next
// lookup misses. The epoch is captured BEFORE any staging work, so a
// commit racing a computation parks the entry under the older epoch —
// conservative, never stale-serving.

// CacheKeyer is implemented by strategies whose deliveries are memoizable:
// CacheKey returns a canonical parameter key and the epoch tag of the data
// the delivery depends on. ok=false opts the request out (e.g. params that
// fail to decode — let Prepare produce the real error).
type CacheKeyer interface {
	CacheKey(req *Request) (key, epoch string, ok bool)
}

// MemoStats counts result-cache traffic.
type MemoStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// HitRate is hits over attempted lookups (0 when none).
func (m MemoStats) HitRate() float64 {
	if n := m.Hits + m.Misses; n > 0 {
		return float64(m.Hits) / float64(n)
	}
	return 0
}

// memoCache maps canonical keys to deliveries tagged with the data epoch
// they were computed against, on the shared CLOCK cache (a stampede of
// one-shot keys recycles cold slots while the hot working set — exactly
// the entries a flare-alert crowd keeps re-reading — survives), and
// counts hits and misses.
type memoCache struct {
	c            *clockcache.Cache[string, *Delivery]
	hits, misses atomic.Int64
}

func newMemoCache(capacity int) *memoCache {
	return &memoCache{c: clockcache.New[string, *Delivery](capacity)}
}

// get returns the cached delivery if its epoch tag still matches.
// Deliveries are SHARED between callers — immutable by contract.
func (m *memoCache) get(key, epoch string) (*Delivery, bool) {
	del, e, ok := m.c.Get(key)
	if !ok || e != epoch {
		m.misses.Add(1)
		return nil, false
	}
	m.hits.Add(1)
	return del, true
}

func (m *memoCache) put(key, epoch string, del *Delivery) { m.c.Put(key, epoch, del) }

func (m *memoCache) stats() MemoStats {
	st := m.c.Stats()
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Evictions: st.Evictions, Entries: st.Entries}
}
