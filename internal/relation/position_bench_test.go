package relation

import (
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

// positionVersions is how many versions BenchmarkPosition stores: 4,096
// chunks of 256, so a search crosses every level of the store.
const positionVersions = 1 << 20

// positionRelation stores n bare event versions, surrogates 1..n.
func positionRelation(b *testing.B, n int) *Relation {
	b.Helper()
	r := New(Schema{Name: "p", ValidTime: element.EventStamp, Granularity: chronon.Second}, tx.NewLogicalClock(0, 1))
	for i := range n {
		if _, err := r.Insert(Insertion{VT: element.EventAt(chronon.Chronon(i))}); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkPosition times what finds a version by its surrogate on a
// relation of 1,048,576 versions — a lookup that hits, one past the last
// surrogate (answered without a search), a staged and committed delete — and
// Backlog, which reads every version in order. The deletes come last: they
// are the only leg that changes the relation.
func BenchmarkPosition(b *testing.B) {
	r := positionRelation(b, positionVersions)
	b.Run("hit", func(b *testing.B) {
		for i := range b.N {
			es := surrogate.Surrogate(1 + uint64(i)*7919%positionVersions)
			if _, ok := r.ByES(es); !ok {
				b.Fatalf("ByES(%v) missed", es)
			}
		}
	})
	b.Run("miss-past-end", func(b *testing.B) {
		for i := range b.N {
			if _, ok := r.ByES(surrogate.Surrogate(positionVersions + 1 + i)); ok {
				b.Fatal("found a surrogate never stored")
			}
		}
	})
	b.Run("backlog", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if got := len(r.Backlog()); got < positionVersions {
				b.Fatalf("backlog of %d records", got)
			}
		}
	})
	d, next := r, 0 // across the runs of the leg: a version closes once
	b.Run("delete", func(b *testing.B) {
		for i := range b.N {
			if next == positionVersions { // every version closed: a fresh relation, untimed
				b.StopTimer()
				d, next = positionRelation(b, positionVersions), 0
				b.StartTimer()
			}
			next++
			es := surrogate.Surrogate(1 + uint64(next-1)*7919%positionVersions)
			e, tt, err := d.StageDelete(es)
			if err != nil {
				b.Fatalf("delete %d: %v", i, err)
			}
			d.CommitDelete(e, tt)
		}
	})
}
