package catalog

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
)

// TestResidentBytesPerVersion bounds what a stored version keeps resident:
// 65,536 two-attribute versions are inserted in keyed batches of 256, the
// way a batch writer sends them, and the heap that survives a collection
// is divided among them. It holds the element, its value array, the
// relation's version list — the store's chunked sequence, which the backlog
// is read off — the tracker and the dedup window's share. Measured (go1.24,
// amd64, with and without -race): 216 B a version. While the relation kept
// a slice of the versions beside the store's sequence it was 225 B, and
// before it read its backlog off that slice, while a value took 40 bytes,
// 267–268 B.
func TestResidentBytesPerVersion(t *testing.T) {
	const versions, batch = 1 << 16, 256
	const budget = 238 // the measurement plus 10 % (248 over the 225 B of the two lists)
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(relation.Schema{
		Name: "s", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "sensor", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "v", Type: element.KindInt}},
	})
	if err != nil {
		t.Fatal(err)
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
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / versions
	t.Logf("%.0f resident bytes per version", per)
	if per > budget {
		t.Fatalf("a stored version keeps %.0f bytes resident, budget %d", per, budget)
	}
}
