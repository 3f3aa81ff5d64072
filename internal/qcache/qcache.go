// Package qcache is the catalog's plan-keyed query-result cache: a
// byte-budgeted LRU keyed by (relation, canonical query fingerprint,
// mutation epoch). The epoch in the key is what makes invalidation free —
// a mutation bumps the relation's epoch, so every cached result for the
// old epoch simply stops being looked up and ages out of the LRU; nothing
// is ever scanned or purged eagerly. Values are opaque to the cache;
// callers supply an approximate resident size and results larger than the
// per-entry budget are not admitted (one giant rollback result must not
// wipe the working set).
//
// All methods are safe for concurrent use and safe on a nil *Cache, so a
// disabled cache (capacity 0) needs no call-site branching.
package qcache

import (
	"container/list"
	"sync"
)

// Key identifies one cached result. Epoch is the relation's mutation
// epoch at the time the result was computed; a stale epoch can never be
// looked up again, which is the whole invalidation story.
type Key struct {
	Rel         string
	Fingerprint string
	Epoch       uint64
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Bytes     int64
	Capacity  int64
}

type entry struct {
	key  Key
	val  any
	size int64
}

// Cache is the LRU. The zero value is unusable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	maxEntry int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element

	hits, misses, evictions uint64
}

// New builds a cache bounded to capacity bytes, or returns nil (a valid,
// always-missing cache) when capacity is not positive. Individual entries
// are capped at an eighth of the capacity so one oversized result cannot
// evict the entire working set.
func New(capacity int64) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		capacity: capacity,
		maxEntry: capacity / 8,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
	}
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) { return c.get(k, true) }

// Peek is Get outside the hit and miss counters, for callers that keep
// derived state in the cache beside whole results — the aggregate path's
// per-run partials, looked up on exactly the queries that already counted
// as a result miss. Stats' ratio so stays hits over whole-result lookups.
func (c *Cache) Peek(k Key) (any, bool) { return c.get(k, false) }

func (c *Cache) get(k Key, count bool) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	le, ok := c.items[k]
	if count {
		if ok {
			c.hits++
		} else {
			c.misses++
		}
	}
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(le)
	return le.Value.(*entry).val, true
}

// MaxEntry reports the largest size Put admits; 0 for a nil cache.
func (c *Cache) MaxEntry() int64 {
	if c == nil {
		return 0
	}
	return c.maxEntry
}

// Put stores v under k with the given approximate size, evicting from the
// LRU tail until the byte budget holds. Oversized values are not admitted;
// a re-Put of an existing key replaces its value and size.
func (c *Cache) Put(k Key, v any, size int64) {
	if c == nil || size > c.maxEntry {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if le, ok := c.items[k]; ok {
		en := le.Value.(*entry)
		c.bytes += size - en.size
		en.val, en.size = v, size
		c.ll.MoveToFront(le)
	} else {
		c.items[k] = c.ll.PushFront(&entry{key: k, val: v, size: size})
		c.bytes += size
	}
	for c.bytes > c.capacity {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		en := tail.Value.(*entry)
		c.ll.Remove(tail)
		delete(c.items, en.key)
		c.bytes -= en.size
		c.evictions++
	}
}

// Stats reports the cache's counters; all zeros for a nil cache.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
}
