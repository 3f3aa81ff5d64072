package backlog

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/tx"
)

// BenchmarkLoadSnapshot times snapshot boot (Load) of a sensor relation:
// 65,536 versions of one string and one int column, every eighth one
// closed by a modify. allocs/version is what a version costs to bring
// back; Load adopts the elements Read decoded, so that is the decode's
// element and value array, the string, and the record and store growth.
// `make bench-smoke` runs it.
func BenchmarkLoadSnapshot(b *testing.B) {
	const n = 1 << 16
	r := relation.New(relation.Schema{
		Name: "sensor", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Invariant: []relation.Column{{Name: "id", Type: element.KindString}},
		Varying:   []relation.Column{{Name: "value", Type: element.KindInt}},
	}, tx.NewLogicalClock(0, 10))
	for i := 0; i < n; i++ {
		e, err := r.Insert(relation.Insertion{
			VT:        element.EventAt(chronon.Chronon(10 * i)),
			Invariant: []element.Value{element.String_("s1")},
			Varying:   []element.Value{element.Int(int64(i % 1000))},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i%8 == 7 {
			if _, err := r.Modify(e.ES, e.VT, []element.Value{element.Int(-1)}); err != nil {
				b.Fatal(err)
			}
			i++
		}
	}
	path := filepath.Join(b.TempDir(), "sensor.tsbl")
	if err := Save(path, Of(r)); err != nil {
		b.Fatal(err)
	}
	versions := r.Len()
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		got, _, err := Load(path, tx.NewLogicalClock(0, 10))
		if err != nil || got.Len() != versions {
			b.Fatalf("Load: %v, %d versions of %d", err, got.Len(), versions)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*versions), "allocs/version")
	b.ReportMetric(float64(b.N*versions)/b.Elapsed().Seconds(), "versions/s")
}
