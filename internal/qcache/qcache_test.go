package qcache

import "testing"

func key(fp string, epoch uint64) Key {
	return Key{Rel: "r", Fingerprint: fp, Epoch: epoch}
}

func TestGetPutAndCounters(t *testing.T) {
	c := New(1024)
	if _, ok := c.Get(key("a", 1)); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(key("a", 1), "va", 100)
	v, ok := c.Get(key("a", 1))
	if !ok || v.(string) != "va" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	// A different epoch is a different key: the free-invalidation story.
	if _, ok := c.Get(key("a", 2)); ok {
		t.Fatal("stale-epoch key hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionIsLRU(t *testing.T) {
	c := New(800) // maxEntry = 100
	c.Put(key("a", 1), "a", 100)
	c.Put(key("b", 1), "b", 100)
	c.Put(key("c", 1), "c", 100)
	c.Get(key("a", 1)) // refresh a; b is now the LRU tail
	for i := 0; i < 6; i++ {
		c.Put(key(string(rune('d'+i)), 1), i, 100)
	}
	if _, ok := c.Get(key("a", 1)); !ok {
		t.Fatal("recently used entry evicted before the LRU tail")
	}
	if _, ok := c.Get(key("b", 1)); ok {
		t.Fatal("LRU tail survived past capacity")
	}
	if st := c.Stats(); st.Evictions == 0 || st.Bytes > st.Capacity {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOversizedEntryNotAdmitted(t *testing.T) {
	c := New(800) // maxEntry = 100
	c.Put(key("big", 1), "big", 101)
	if _, ok := c.Get(key("big", 1)); ok {
		t.Fatal("oversized entry admitted")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d, want 0", st.Entries)
	}
}

func TestReplaceAdjustsBytes(t *testing.T) {
	c := New(1024)
	c.Put(key("a", 1), "v1", 100)
	c.Put(key("a", 1), "v2", 60)
	v, ok := c.Get(key("a", 1))
	if !ok || v.(string) != "v2" {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if st := c.Stats(); st.Bytes != 60 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache // also what New(0) returns
	if New(0) != nil {
		t.Fatal("New(0) != nil")
	}
	c.Put(key("a", 1), "a", 1)
	if _, ok := c.Get(key("a", 1)); ok {
		t.Fatal("nil cache hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// TestPeekStaysOutOfTheCounters: Peek is a use (it refreshes the entry's
// LRU position) but not a result lookup — hits and misses do not move, so
// the hit ratio stays a whole-result number.
func TestPeekStaysOutOfTheCounters(t *testing.T) {
	c := New(800) // maxEntry = 100
	if c.MaxEntry() != 100 {
		t.Fatalf("MaxEntry = %d, want 100", c.MaxEntry())
	}
	c.Put(key("a", 1), "a", 100)
	c.Put(key("b", 1), "b", 100)
	if v, ok := c.Peek(key("a", 1)); !ok || v.(string) != "a" {
		t.Fatalf("Peek = %v, %v", v, ok)
	}
	if _, ok := c.Peek(key("zz", 1)); ok {
		t.Fatal("Peek hit a missing key")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek moved the counters: %+v", st)
	}
	for i := 0; i < 7; i++ { // push the untouched b off the tail
		c.Put(key(string(rune('d'+i)), 1), i, 100)
	}
	if _, ok := c.Peek(key("a", 1)); !ok {
		t.Fatal("peeked entry evicted before the LRU tail")
	}
	if _, ok := c.Peek(key("b", 1)); ok {
		t.Fatal("LRU tail survived")
	}
	var off *Cache
	if _, ok := off.Peek(key("a", 1)); ok || off.MaxEntry() != 0 {
		t.Fatal("nil cache: Peek hit or MaxEntry non-zero")
	}
}

// TestChunksOneEntryPerChunk: a chunk memo entry is named by its ordinal
// and keeps the close count it was derived at. A lookup at that count hits;
// at a higher one it returns the value to rebuild from and lets a put
// replace it; at a lower one — an older view — it refuses the put, and so
// does Put itself.
func TestChunksOneEntryPerChunk(t *testing.T) {
	c := New(800) // maxEntry = 100
	var n Counts
	m := c.Chunks("r", "img", 7, &n)
	if v, exact, keep := m.Get(3, 0); v != nil || exact || !keep {
		t.Fatalf("empty: %v %v %v", v, exact, keep)
	}
	m.Put(3, 1, "at1", 40)
	if v, exact, _ := m.Get(3, 1); !exact || v != "at1" {
		t.Fatalf("same count: %v %v", v, exact)
	}
	if v, exact, keep := m.Get(3, 2); exact || !keep || v != "at1" {
		t.Fatalf("later view: %v %v %v, want the old value to rebuild from", v, exact, keep)
	}
	m.Put(3, 2, "at2", 50)
	if v, exact, keep := m.Get(3, 1); exact || keep || v != "at2" {
		t.Fatalf("older view: %v %v %v", v, exact, keep)
	}
	m.Put(3, 1, "stale", 10)
	if v, exact, _ := m.Get(3, 2); !exact || v != "at2" {
		t.Fatalf("an older view's put displaced the later entry: %v %v", v, exact)
	}
	if v, _, _ := c.Chunks("r", "img", 8, &n).Get(3, 2); v != nil {
		t.Fatal("another store generation shares the entry")
	}
	if h, b := n.Hit.Load(), n.Built.Load(); h != 2 || b != 3 {
		t.Fatalf("counts: %d hits, %d built", h, b)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 50 || st.ChunkBytes != 50 || st.Hits+st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestChunkBytesFollowEviction: ChunkBytes is charged on put and credited on
// replacement and eviction, beside Bytes, and whole results never count in it.
func TestChunkBytesFollowEviction(t *testing.T) {
	c := New(800) // maxEntry = 100
	var n Counts
	m := c.Chunks("r", "part:x", 1, &n)
	for k := 0; k < 4; k++ {
		m.Put(k, 0, k, 100)
	}
	c.Put(key("a", 1), "a", 100)
	if st := c.Stats(); st.ChunkBytes != 400 || st.Bytes != 500 {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < 5; i++ { // ten entries of 100 bytes for 800: chunks 0 and 1, the tail, go
		c.Put(key(string(rune('b'+i)), 1), i, 100)
	}
	st := c.Stats()
	if st.Evictions != 2 || st.ChunkBytes != 200 || st.Bytes != 800 {
		t.Fatalf("after two evictions: %+v", st)
	}
	if _, exact, _ := m.Get(0, 0); exact {
		t.Fatal("the LRU tail survived")
	}
	m.Put(3, 1, "x", 20)
	if st := c.Stats(); st.ChunkBytes != 120 || st.Bytes != 720 {
		t.Fatalf("after a replacement: %+v", st)
	}
}
