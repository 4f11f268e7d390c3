// Package clockcache is the one bounded, epoch-keyed cache: the DM query
// cache, the gateway's stale-serve lifeboat and the processing farm's
// result memo all sit on it. Every entry carries the epoch its value was
// computed against; callers compare it with the current epoch themselves,
// so one lookup serves both a fresh hit and a deliberate stale serve.
//
// Capacity overflow evicts ONE entry by the CLOCK (second-chance) rule:
// the hand sweeps the ring, spares each recently-read entry once by
// clearing its reference bit, and replaces the first entry found cold. A
// stampede of one-shot keys therefore recycles the same cold slots while
// the hot working set survives.
package clockcache

import "sync"

// Stats counts cache occupancy and evictions.
type Stats struct {
	Evictions int64
	Entries   int
}

type slot[E, V any] struct {
	key   string
	epoch E
	val   V
	ref   bool
}

// Cache maps string keys to values tagged with an epoch. It is safe for
// concurrent use. Values are shared between callers: treat them as
// immutable.
type Cache[E, V any] struct {
	mu        sync.Mutex
	index     map[string]int // key -> ring position
	ring      []slot[E, V]   // grows on demand up to cap
	hand      int
	cap       int
	evictions int64
}

// New returns an empty cache holding at most capacity entries.
func New[E, V any](capacity int) *Cache[E, V] {
	return &Cache[E, V]{index: make(map[string]int), cap: max(capacity, 1)}
}

// Get returns the value cached under key and the epoch it was stored
// with, marking the entry recently used.
func (c *Cache[E, V]) Get(key string) (val V, epoch E, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		return val, epoch, false
	}
	s := &c.ring[i]
	s.ref = true
	return s.val, s.epoch, true
}

// Put stores val under key. An existing key is overwritten in place: it
// keeps its ring position and earns a reference, being demonstrably live.
// A new key past capacity replaces the entry the CLOCK hand finds cold.
func (c *Cache[E, V]) Put(key string, epoch E, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.ring[i] = slot[E, V]{key: key, epoch: epoch, val: val, ref: true}
		return
	}
	if len(c.ring) < c.cap {
		c.index[key] = len(c.ring)
		c.ring = append(c.ring, slot[E, V]{key: key, epoch: epoch, val: val})
		return
	}
	// Full: sweep until a cold slot turns up. Terminates within two laps —
	// the first lap clears every reference bit at worst.
	for c.ring[c.hand].ref {
		c.ring[c.hand].ref = false
		c.hand = (c.hand + 1) % len(c.ring)
	}
	delete(c.index, c.ring[c.hand].key)
	c.evictions++
	c.ring[c.hand] = slot[E, V]{key: key, epoch: epoch, val: val}
	c.index[key] = c.hand
	c.hand = (c.hand + 1) % len(c.ring)
}

// Stats returns the current occupancy and the evictions so far.
func (c *Cache[E, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Evictions: c.evictions, Entries: len(c.index)}
}
