package qcache

import (
	"math/rand"
	"sync"
	"testing"
)

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
	c := New(800)
	if c.MaxEntry() != 100 {
		t.Fatalf("MaxEntry = %d, want 100", c.MaxEntry())
	}
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
	if st := c.Stats(); st != (Stats{}) || c.MaxEntry() != 0 {
		t.Fatalf("nil stats = %+v, MaxEntry = %d", st, c.MaxEntry())
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

// TestOlderViewNeverDisplacesAFresherResult: a whole result keeps the epoch
// it was computed at. A lookup at that epoch hits without asking anything;
// at a later one it hits only when holds vouches for what changed since,
// and is then recorded at the later epoch; at an earlier one — an older
// pinned view — it misses without asking, and neither that view's lookup
// nor its Record displaces the fresher answer. Recorders racing over every
// epoch leave one recorded at the newest.
func TestOlderViewNeverDisplacesAFresherResult(t *testing.T) {
	c := New(800) // maxEntry = 100
	var asked []uint64
	holds := func(ok bool) func(uint64) bool {
		return func(at uint64) bool { asked = append(asked, at); return ok }
	}
	answer := func(epoch uint64, ok bool) (any, bool) { return c.Answer("r", "q", epoch, holds(ok)) }
	c.Record("r", "q", 5, "at5", 40)
	if v, ok := answer(5, false); !ok || v != "at5" || len(asked) != 0 {
		t.Fatalf("same epoch: %v %v, asked %v", v, ok, asked)
	}
	if _, ok := answer(3, true); ok || len(asked) != 0 {
		t.Fatalf("an older view was served a later answer, asked %v", asked)
	}
	c.Record("r", "q", 3, "at3", 40)
	if v, ok := answer(5, false); !ok || v != "at5" {
		t.Fatalf("an older view's record displaced the later answer: %v %v", v, ok)
	}
	if _, ok := answer(7, false); ok || len(asked) != 1 || asked[0] != 5 {
		t.Fatalf("a change met since: served %v, asked %v", ok, asked)
	}
	if v, ok := answer(7, true); !ok || v != "at5" || len(asked) != 2 || asked[1] != 5 {
		t.Fatalf("nothing met since: %v %v, asked %v", v, ok, asked)
	}
	if v, ok := answer(7, false); !ok || v != "at5" || len(asked) != 2 {
		t.Fatalf("the revalidated answer was not recorded at its epoch: %v %v, asked %v", v, ok, asked)
	}
	c.Record("r", "q", 6, "at6", 40)
	if v, ok := answer(7, false); !ok || v != "at5" {
		t.Fatalf("an older view's record displaced the revalidated answer: %v %v", v, ok)
	}
	if v, ok := c.Answer("r", "other", 7, holds(true)); ok || v != nil {
		t.Fatal("another query shares the entry")
	}
	if st := c.Stats(); st.Hits != 5 || st.Misses != 3 || st.Revalidated != 1 || st.Entries != 1 || st.Bytes != 40 {
		t.Fatalf("stats = %+v", st)
	}

	const newest = 400
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 2000 {
				ep := uint64(1 + rng.Intn(newest))
				if rng.Intn(2) == 0 {
					c.Record("r", "race", ep, ep, 40)
				} else if v, ok := c.Answer("r", "race", ep, func(at uint64) bool { return at < ep }); ok && v.(uint64) > ep {
					t.Errorf("epoch %d answered with the value of epoch %v", ep, v)
				}
			}
		}()
	}
	wg.Wait()
	c.Record("r", "race", newest, uint64(newest), 40)
	for ep := uint64(1); ep < newest; ep++ {
		c.Record("r", "race", ep, ep, 40)
	}
	if v, ok := c.Answer("r", "race", newest, func(uint64) bool { t.Fatal("asked at the newest epoch"); return false }); !ok || v.(uint64) > newest {
		t.Fatalf("the newest epoch's answer did not stand: %v %v", v, ok)
	}
}
