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
