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
// The heap leg is an undeclared relation, whose chunks stay elements.
// Measured (go1.24, amd64, with and without -race): 216 B and 2.0 objects a
// version. While the relation kept a slice of the versions beside the
// store's sequence it was 225 B, and before it read its backlog off that
// slice, while a value took 40 bytes, 267–268 B.
//
// The declared leg is the same stream on a relation declared non-decreasing,
// whose store is the vt-ordered log: every chunk is sealed into columns as
// it fills, and the window keeps surrogates, so nothing but the columns and
// the head chunk's elements stays. Measured (go1.24, amd64, with and
// without -race): 78 B and 0.028 objects a version; its bounds are those
// plus 10 %. It must also stay within two thirds of the heap leg's bytes,
// measured in the same run.
func TestResidentBytesPerVersion(t *testing.T) {
	heapBytes, heapObjects := residentPerVersion(t, false)
	t.Logf("heap: %.0f resident bytes, %.2f heap objects per version", heapBytes, heapObjects)
	const heapBudget = 238 // the measurement plus 10 % (248 over the 225 B of the two lists)
	if heapBytes > heapBudget {
		t.Fatalf("a stored version keeps %.0f bytes resident, budget %d", heapBytes, heapBudget)
	}
	bytes, objects := residentPerVersion(t, true)
	t.Logf("declared: %.0f resident bytes, %.3f heap objects per version", bytes, objects)
	const budget, objectBudget = 86, 0.031
	if bytes > budget || bytes > heapBytes*2/3 {
		t.Fatalf("a sealed version keeps %.0f bytes resident, budget %d and two thirds of the heap's %.0f", bytes, budget, heapBytes)
	}
	if objects > objectBudget {
		t.Fatalf("a sealed version keeps %.3f heap objects, budget %v", objects, objectBudget)
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
