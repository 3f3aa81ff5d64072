package storage

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

func TestBtreeInsertAndScanAll(t *testing.T) {
	tr := newBtree()
	const n = 1000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for i, v := range perm {
		tr.insert(chronon.Chronon(v), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	var got []int
	tr.scanRange(chronon.MinChronon, chronon.MaxChronon, func(pos int) bool {
		got = append(got, perm[pos])
		return true
	})
	if len(got) != n {
		t.Fatalf("scan returned %d entries", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("scan not in key order")
	}
}

func TestBtreeDuplicateVTs(t *testing.T) {
	tr := newBtree()
	for i := 0; i < 100; i++ {
		tr.insert(42, i)
	}
	var got []int
	tr.scanRange(42, 42, func(pos int) bool {
		got = append(got, pos)
		return true
	})
	if len(got) != 100 || !sort.IntsAreSorted(got) {
		t.Fatalf("found %d of 100 duplicates, in position order %v", len(got), sort.IntsAreSorted(got))
	}
}

func TestBtreeRangeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newBtree()
	var ref []int64
	for i := 0; i < 3000; i++ {
		v := int64(rng.Intn(500))
		tr.insert(chronon.Chronon(v), i)
		ref = append(ref, v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for trial := 0; trial < 200; trial++ {
		lo := int64(rng.Intn(520) - 10)
		hi := lo + int64(rng.Intn(100))
		want := 0
		for _, v := range ref {
			if v >= lo && v < hi {
				want++
			}
		}
		got := 0
		touched := tr.scanRange(chronon.Chronon(lo), chronon.Chronon(hi-1), func(int) bool {
			got++
			return true
		})
		if got != want {
			t.Fatalf("range [%d,%d): got %d, want %d", lo, hi, got, want)
		}
		if touched > want+64 {
			t.Fatalf("range [%d,%d): touched %d for %d results", lo, hi, touched, want)
		}
	}
}

func TestBtreeScanEarlyStop(t *testing.T) {
	tr := newBtree()
	for i := 0; i < 200; i++ {
		tr.insert(chronon.Chronon(i), i)
	}
	count := 0
	tr.scanRange(0, 199, func(int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestIndexedEventStore(t *testing.T) {
	idx := NewIndexedEvent()
	heap := NewHeap()
	const n = 2000
	for i := int64(0); i < n; i++ {
		// Shuffled valid times: a general (unordered) relation.
		vt := (i * 7919) % 10007
		e := ev(i*10, vt)
		if err := idx.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := heap.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != n || idx.Kind() != Heap {
		t.Fatal("Len/Kind wrong")
	}
	for _, q := range []int64{0, 5003, 9999, 12345} {
		a, aTouched := idx.Timeslice(chronon.Chronon(q))
		b, bTouched := heap.Timeslice(chronon.Chronon(q))
		if !sameElems(a, b) {
			t.Fatalf("timeslice(%d) disagrees with heap", q)
		}
		if aTouched >= bTouched {
			t.Errorf("timeslice(%d): index touched %d ≥ heap %d", q, aTouched, bTouched)
		}
	}
	a, _ := idx.VTRange(1000, 2000)
	b, _ := heap.VTRange(1000, 2000)
	if !sameElems(a, b) {
		t.Fatal("range disagrees with heap")
	}
	ra, _ := idx.Rollback(5000)
	rb, _ := heap.Rollback(5000)
	if !sameElems(ra, rb) {
		t.Fatal("rollback disagrees with heap")
	}
	cnt := 0
	idx.Scan(func(*element.Element) bool { cnt++; return true })
	if cnt != n {
		t.Fatalf("scan visited %d", cnt)
	}
}

func TestIndexedEventStoreRejectsIntervals(t *testing.T) {
	idx := NewIndexedEvent()
	e := &element.Element{ES: surrogate.Surrogate(1), OS: 1, TTStart: 0,
		TTEnd: chronon.Forever, VT: element.SpanOf(0, 10)}
	if err := idx.Insert(e); err == nil {
		t.Fatal("interval element accepted")
	}
	if errIntervalIndexed.Error() == "" {
		t.Fatal("error message empty")
	}
}

func TestIndexedStoreSeesDeletions(t *testing.T) {
	idx := NewIndexedEvent()
	a, b := ev(10, 100), ev(11, 100)
	fill(t, idx, a, b)
	if got, _ := idx.Timeslice(100); len(got) != 2 {
		t.Fatal("elements not found")
	}
	// A logical deletion is a close through the heap's own Replace or
	// ReplaceAt; the index keys positions, so neither edits it.
	closed := a.Clone()
	closed.TTEnd = 20
	idx.Replace(a, closed)
	if got, _ := idx.Timeslice(100); len(got) != 1 || got[0].ES != b.ES {
		t.Fatal("element closed through Replace still visible in timeslice")
	}
	closed = b.Clone()
	closed.TTEnd = 30
	idx.ReplaceAt(1, closed)
	if got, _ := idx.Timeslice(100); len(got) != 0 {
		t.Fatal("element closed through ReplaceAt still visible in timeslice")
	}
	if got, _ := idx.Rollback(15); len(got) != 2 {
		t.Fatal("rollback before deletion lost an element")
	}
	if got, _ := idx.Rollback(25); len(got) != 1 || got[0].ES != b.ES {
		t.Fatal("rollback between the deletions is wrong")
	}
}

// TestIndexedSnapshotMaterializesNothing: a snapshot of the indexed store
// rebuilds its index from the valid-time column alone, so what it allocates
// is the same for versions that carry eight string values each as for
// versions that carry none.
func TestIndexedSnapshotMaterializesNothing(t *testing.T) {
	const n = 20000
	snapshotBytes := func(values int) uint64 {
		idx := NewIndexedEvent()
		for i := range n {
			e := ev(int64(i), int64(i*7919%10007))
			for v := range values {
				e.Invariant = append(e.Invariant, element.String_(fmt.Sprintf("value %d of version %d", v, i)))
			}
			if err := idx.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		// The least of a few runs: whatever else allocates meanwhile only adds.
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&before)
			idx.Snapshot()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if bare, carrying := snapshotBytes(0), snapshotBytes(8); bare != carrying {
		t.Errorf("snapshot of %d versions: %d bytes allocated with eight string values each, %d with none", n, carrying, bare)
	}
}
