// Package qcache is the catalog's plan-keyed query-result cache: a
// byte-budgeted LRU. Nothing is ever scanned or purged eagerly; an entry
// stops being served and ages out of the LRU. Values are opaque to the
// cache; callers supply an approximate resident size and results larger
// than the per-entry budget are not admitted (one giant rollback result
// must not wipe the working set).
//
// A whole answer is one entry under (relation, canonical query
// fingerprint), the mutation epoch it was computed at kept with the value
// (Record). A lookup at a later epoch (Answer) asks the caller whether
// anything that changed since that epoch can reach the answer; when
// nothing can, the answer is served and recorded again at the later epoch,
// so the next lookup asks from there. When something can reach it, the
// lookup misses but hands the superseded answer back, and Recorded finds
// the entry, for a caller that can bring it up to date. Get and Put are the
// exact form, the epoch part of the key: an answer that holds for one epoch
// only.
//
// Beside whole results the cache holds the chunk memo (Chunks): values
// derived from one full chunk of a relation's store — an aggregate's
// partial, a group of chunks' partial, a chunk's encoded image — each its
// own entry under the store generation and the chunk's ordinal, evicted
// and budgeted like any result.
//
// One rule, in put, covers both: an entry is never replaced by a value
// derived from an older view — a lower epoch, a lower close count.
//
// All methods are safe for concurrent use and safe on a nil *Cache, so a
// disabled cache (capacity 0) needs no call-site branching.
package qcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies one cached value. For Get and Put, Epoch is the
// relation's mutation epoch at the time the value was computed, and a
// stale epoch is never looked up again. A result kept by Record leaves
// Epoch 0 and keeps its epoch with the value; a chunk memo entry keys by
// store generation instead, and by Chunk, its ordinal. Every other entry
// leaves Chunk 0.
type Key struct {
	Rel         string
	Fingerprint string
	Epoch       uint64
	Chunk       int
}

// Stats is a point-in-time view of the cache's counters. ChunkBytes is
// the part of Bytes the chunk memo's entries hold; Revalidated the part of
// Hits that Answer served across one or more epochs.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Revalidated uint64
	Evictions   uint64
	Entries     int
	Bytes       int64
	ChunkBytes  int64
	Capacity    int64
}

// entry is one cached value. It never changes once in the cache — a re-Put
// swaps in a new one — so a reader may hold it past the lock. at is what
// the value was derived at: a chunk memo entry's close count, a recorded
// result's epoch, 0 for a Put.
type entry struct {
	key   Key
	val   any
	size  int64
	chunk bool // a chunk memo entry
	at    uint64
}

// supersedes reports whether the entry was derived from a later view than
// a value derived at at: epochs and close counts are monotone, so a reader
// whose number is lower holds an older pinned view, and what it derives
// must not displace the fresher value.
func (en *entry) supersedes(at uint64) bool { return en.at > at }

// Cache is the LRU. The zero value is unusable; construct with New.
type Cache struct {
	mu         sync.Mutex
	capacity   int64
	maxEntry   int64
	bytes      int64
	chunkBytes int64
	ll         *list.List // front = most recently used
	items      map[Key]*list.Element

	hits, misses, revalidated, evictions uint64
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
func (c *Cache) Get(k Key) (any, bool) {
	if en := c.get(k, true); en != nil {
		return en.val, true
	}
	return nil, false
}

// Peek is Get outside the hit and miss counters, which count whole-result
// lookups only; the chunk memo's lookups go the same way.
func (c *Cache) Peek(k Key) (any, bool) {
	if en := c.get(k, false); en != nil {
		return en.val, true
	}
	return nil, false
}

// get returns k's entry, nil for none, marking it most recently used.
func (c *Cache) get(k Key, count bool) *entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	en := c.use(k)
	if count {
		if en != nil {
			c.hits++
		} else {
			c.misses++
		}
	}
	return en
}

// use returns k's entry, nil for none, marking it most recently used.
// Caller holds mu.
func (c *Cache) use(k Key) *entry {
	le, ok := c.items[k]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(le)
	return le.Value.(*entry)
}

// Answer returns the whole result to query fp of relation rel at epoch,
// as Record kept it. One recorded at epoch is a hit. One recorded at an
// earlier epoch is a hit when holds, asked about that epoch, says nothing
// that changed since can reach the answer; it is then recorded again at
// epoch, so that the next lookup asks from there, and counted revalidated.
// Anything else — no entry, one recorded at a later epoch (the caller
// holds an older view), one holds refuses — is a miss: hits and misses
// count answers given and not given without executing. On a miss over one
// holds refused, the superseded answer is handed back beside false: the
// query was answered before. holds runs outside the cache's lock.
func (c *Cache) Answer(rel, fp string, epoch uint64, holds func(at uint64) bool) (any, bool) {
	if c == nil {
		return nil, false
	}
	k := Key{Rel: rel, Fingerprint: fp}
	c.mu.Lock()
	en := c.use(k)
	switch {
	case en != nil && en.at == epoch:
		c.hits++
		c.mu.Unlock()
		return en.val, true
	case en == nil || en.at > epoch:
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()
	ok := holds(en.at)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		return en.val, false
	}
	c.hits++
	c.revalidated++
	c.putLocked(k, en.val, en.size, false, epoch)
	return en.val, true
}

// Recorded hands back what Record kept for query fp of relation rel when it
// was computed at epoch or before, with that epoch, for a caller that can
// bring it up to date. It marks the entry most recently used and counts
// nothing: it is not an answer. One recorded at a later epoch (the caller
// holds an older view) is not handed back.
func (c *Cache) Recorded(rel, fp string, epoch uint64) (v any, at uint64, ok bool) {
	en := c.get(Key{Rel: rel, Fingerprint: fp}, false)
	if en == nil || en.at > epoch {
		return nil, 0, false
	}
	return en.val, en.at, true
}

// Record keeps v, the whole result to query fp of relation rel computed
// at epoch, with its approximate size — unless an answer recorded at a
// later epoch is there, which an older view's must not displace.
func (c *Cache) Record(rel, fp string, epoch uint64, v any, size int64) {
	c.put(Key{Rel: rel, Fingerprint: fp}, v, size, false, epoch)
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
func (c *Cache) Put(k Key, v any, size int64) { c.put(k, v, size, false, 0) }

// put stores a value derived at at — a whole result or, when chunk, a chunk
// memo entry — unless the entry there supersedes it.
func (c *Cache) put(k Key, v any, size int64, chunk bool, at uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, v, size, chunk, at)
}

// putLocked is put under mu.
func (c *Cache) putLocked(k Key, v any, size int64, chunk bool, at uint64) {
	if size > c.maxEntry {
		return
	}
	nw := &entry{key: k, val: v, size: size, chunk: chunk, at: at}
	if le, ok := c.items[k]; ok {
		en := le.Value.(*entry)
		if en.supersedes(at) {
			return
		}
		c.charge(en, -1)
		le.Value = nw
		c.ll.MoveToFront(le)
	} else {
		c.items[k] = c.ll.PushFront(nw)
	}
	c.charge(nw, 1)
	for c.bytes > c.capacity {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		en := tail.Value.(*entry)
		c.ll.Remove(tail)
		delete(c.items, en.key)
		c.charge(en, -1)
		c.evictions++
	}
}

// charge adds (sign 1) or removes (sign -1) en's size from the totals.
func (c *Cache) charge(en *entry, sign int64) {
	c.bytes += sign * en.size
	if en.chunk {
		c.chunkBytes += sign * en.size
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
		Hits:        c.hits,
		Misses:      c.misses,
		Revalidated: c.revalidated,
		Evictions:   c.evictions,
		Entries:     c.ll.Len(),
		Bytes:       c.bytes,
		ChunkBytes:  c.chunkBytes,
		Capacity:    c.capacity,
	}
}

// Counts are one kind of chunk memo entry's lifetime counters: lookups
// that found the chunk at the close count asked for, and values built and
// offered to the cache.
type Counts struct{ Hit, Built atomic.Int64 }

// Chunks is one kind of the chunk memo for one relation and one store
// generation. Within a generation a full chunk is named by its ordinal and
// its lifetime close count, and what is derived from it — window cells,
// encoded bytes — depends on nothing else, on every organization. The
// ordinal is in the key and the count is kept with the value, so a chunk
// has one entry: a lookup at another count still finds the value it
// replaces, and a put never overwrites an entry a later view recorded.
type Chunks struct {
	c   *Cache
	key Key
	n   *Counts
}

// Chunks returns the kind of the chunk memo named by kind, counted in n.
func (c *Cache) Chunks(rel, kind string, gen uint64, n *Counts) Chunks {
	return Chunks{c: c, key: Key{Rel: rel, Fingerprint: kind, Epoch: gen}, n: n}
}

// Get returns chunk k's value when it was derived at closes (exact).
// Otherwise it returns the value held for another count, nil for none, and
// whether Put would keep one derived at closes now.
func (m Chunks) Get(k, closes int) (v any, exact, keep bool) {
	m.key.Chunk = k
	en := m.c.get(m.key, false)
	switch {
	case en == nil:
		return nil, false, true
	case en.at == uint64(closes):
		m.n.Hit.Add(1)
		return en.val, true, false
	}
	return en.val, false, !en.supersedes(uint64(closes))
}

// Put records v, derived from chunk k at closes, with its approximate size.
func (m Chunks) Put(k, closes int, v any, size int64) {
	m.n.Built.Add(1)
	m.key.Chunk = k
	m.c.put(m.key, v, size, true, uint64(closes))
}
