package storage

import (
	"math/rand"
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
	for _, v := range perm {
		e := ev(int64(v), int64(v))
		tr.insert(chronon.Chronon(v), e)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	var got []int64
	tr.scanRange(chronon.MinChronon, chronon.MaxChronon, func(e *element.Element) bool {
		got = append(got, int64(e.VT.Start()))
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
		tr.insert(42, ev(int64(i), 42))
	}
	count := 0
	tr.scanRange(42, 42, func(*element.Element) bool {
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("found %d of 100 duplicates", count)
	}
}

func TestBtreeRangeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newBtree()
	var ref []int64
	for i := 0; i < 3000; i++ {
		v := int64(rng.Intn(500))
		tr.insert(chronon.Chronon(v), ev(int64(i), v))
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
		touched := tr.scanRange(chronon.Chronon(lo), chronon.Chronon(hi-1), func(*element.Element) bool {
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
		tr.insert(chronon.Chronon(i), ev(int64(i), int64(i)))
	}
	count := 0
	tr.scanRange(0, 199, func(*element.Element) bool {
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
	e := ev(10, 100)
	if err := idx.Insert(e); err != nil {
		t.Fatal(err)
	}
	if got, _ := idx.Timeslice(100); len(got) != 1 {
		t.Fatal("element not found")
	}
	e.TTEnd = 20 // logical deletion
	if got, _ := idx.Timeslice(100); len(got) != 0 {
		t.Fatal("deleted element still visible in timeslice")
	}
	if got, _ := idx.Rollback(15); len(got) != 1 {
		t.Fatal("rollback before deletion lost the element")
	}
}
