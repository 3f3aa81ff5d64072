package catalog

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/relation"
	"repro/internal/storage"
)

// TestResidentBytesPerVersion bounds what a stored version keeps resident:
// 65,536 two-attribute versions are inserted in keyed batches of 256, the
// way a batch writer sends them, and the heap that survives a collection
// is divided among them — in bytes, and in heap objects. It holds the
// element, its value array, the relation's version list — the store's
// chunked sequence, which the backlog is read off — the tracker and the
// dedup window's share.
//
// The heap leg is an undeclared relation, the declared leg the same stream
// on a relation declared non-decreasing, whose store is the vt-ordered log.
// On both every chunk is sealed into columns as it fills, and the window
// keeps surrogates, so nothing but the columns and the head chunk's elements
// stays. Measured (go1.24, amd64, with and without -race): 78 B a version on
// each, and 0.03 heap objects a version on the heap leg, 0.028 on the
// declared one; the bounds are those plus 10 %. While
// only the vt-ordered log sealed, the heap leg's chunks stayed elements and
// kept 216 B and 2.0 objects a version (225 B while the relation kept a slice
// of the versions beside the store's sequence, 267–268 B before it read its
// backlog off that slice, while a value took 40 bytes); each leg must also
// stay within two thirds of that element form's 216 B.
func TestResidentBytesPerVersion(t *testing.T) {
	const elementForm = 216
	const budget = 86
	for _, leg := range []struct {
		name         string
		declared     bool
		objectBudget float64
	}{{"heap", false, 0.033}, {"declared", true, 0.031}} {
		bytes, objects := residentPerVersion(t, leg.declared)
		t.Logf("%s: %.0f resident bytes, %.3f heap objects per version", leg.name, bytes, objects)
		if bytes > budget || bytes > elementForm*2/3 {
			t.Fatalf("%s: a sealed version keeps %.0f bytes resident, budget %d and two thirds of the element form's %d B", leg.name, bytes, budget, elementForm)
		}
		if objects > leg.objectBudget {
			t.Fatalf("%s: a sealed version keeps %.3f heap objects, budget %v", leg.name, objects, leg.objectBudget)
		}
	}
}

// residentPerVersion inserts the stream into a fresh catalog, declared
// non-decreasing when declared is set, and reports the heap bytes and heap
// objects each version keeps once a collection has run.
func residentPerVersion(t *testing.T, declared bool) (bytes, objects float64) {
	const versions, batch = 1 << 16, 256
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(relation.Schema{
		Name: "s", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "sensor", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if declared {
		if err := e.Declare([]constraint.Descriptor{mustDescribe(t, constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()}, constraint.PerRelation)}); err != nil {
			t.Fatal(err)
		}
		if k := e.store.Kind(); k != storage.VTOrdered {
			t.Fatalf("declared relation stored on a %v", k)
		}
	}
	sensor := element.String_("sensor-7")
	ins := make([]relation.Insertion, batch)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for b := 0; b < versions/batch; b++ {
		for i := range ins {
			n := int64(b*batch + i)
			ins[i] = relation.Insertion{
				VT:        element.EventAt(chronon.Chronon(10 * n)),
				Invariant: []element.Value{sensor},
				Varying:   []element.Value{element.Int(n % 1000)},
			}
		}
		if _, err := e.InsertBatchKeyed(context.Background(), ins, fmt.Sprint("batch-", b), 0, true); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / versions,
		(float64(after.HeapObjects) - float64(before.HeapObjects)) / versions
}

// TestCachedAnswersChargeWhatTheyPin: an answer the result cache keeps
// across closes pins, for each sealed chunk it draws on, the chunk header
// and tt⊣ column its view held, which the live store has since replaced by
// copies of its own. Forty time-slices at as many valid times, each taking
// four slots of every one of 32 sealed chunks (too few for an image), are
// cached with a close into every chunk between them; the heap that dropping
// them frees must be within a factor of two of the bytes the cache charged
// for them. Charged at a span header alone the cache counted ≈ 4 % of it.
func TestCachedAnswersChargeWhatTheyPin(t *testing.T) {
	const chunks, rounds = 32, 40
	wide := func(_ storage.Kind, i int) relation.Insertion {
		ins := ledgerInsertion(storage.TTOrdered, i)
		if i%64 == 0 {
			ins.VT = element.SpanOf(0, 1_000_000)
		} else {
			ins.VT = element.SpanOf(chronon.Chronon(2_000_000+i), chronon.Chronon(2_000_001+i))
		}
		return ins
	}
	e, ess := ledgerOf(t, storage.TTOrdered, chunks*storage.ChunkSize, 64<<20, wide)
	ctx := context.Background()
	for r := range rounds {
		res, err := e.AnswerCtx(ctx, plan.Query{Kind: plan.QTimeslice, VTLo: int64(500_000 + r), VTHi: int64(500_001 + r)})
		if err != nil || len(res.Answer().Spans()) != chunks || res.Answer().Len() != 4*chunks {
			t.Fatalf("round %d: time-slice of %d spans, %d versions: %v", r, len(res.Answer().Spans()), res.Answer().Len(), err)
		}
		for k := range chunks {
			if err := e.DeleteKeyed(ctx, ess[k*storage.ChunkSize+1+r], ""); err != nil {
				t.Fatalf("DeleteKeyed: %v", err)
			}
		}
	}
	st := e.cache.Stats()
	if st.Entries < rounds || st.Evictions != 0 {
		t.Fatalf("the cache holds %d entries after %d evictions, want the %d answers", st.Entries, st.Evictions, rounds)
	}
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	with := live()
	// Evict them all: entries of the largest size the cache admits, holding
	// nothing.
	for i := int64(0); i <= st.Capacity/e.cache.MaxEntry(); i++ {
		e.cache.Put(qcache.Key{Rel: "filler", Chunk: int(i)}, nil, e.cache.MaxEntry())
	}
	freed := with - live()
	runtime.KeepAlive(e)
	t.Logf("%d cached answers: charged %d B, dropping them freed %d B", rounds, st.Bytes, freed)
	if st.Bytes*2 < freed || freed*2 < st.Bytes {
		t.Fatalf("the cache charged %d B for answers whose eviction freed %d B", st.Bytes, freed)
	}
}
