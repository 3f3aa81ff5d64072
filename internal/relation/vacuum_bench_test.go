package relation

import (
	"runtime"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

// vacuumRelation stores n event versions of one value each, surrogates
// 1..n — inserted live, or adopted off a log through ApplyLog as boot
// replay and follower apply store them — and closes the first closed of
// them. It returns the relation and the tt of the last close.
func vacuumRelation(b *testing.B, n, closed int, adopted bool) (*Relation, chronon.Chronon) {
	b.Helper()
	r := New(Schema{Name: "v", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Varying: []Column{{Name: "x", Type: element.KindInt}}}, tx.NewLogicalClock(0, 1))
	for i := range n {
		vt, vals := element.EventAt(chronon.Chronon(i)), []element.Value{element.Int(int64(i))}
		var err error
		if adopted {
			_, _, err = r.ApplyLog(LogRecord{Op: OpInsert, TT: chronon.Chronon(i + 1), Elem: &element.Element{
				ES: surrogate.Surrogate(i + 1), OS: surrogate.Surrogate(i + 1), VT: vt, Varying: vals}})
		} else {
			_, err = r.Insert(Insertion{VT: vt, Varying: vals})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := range closed {
		if err := r.Delete(surrogate.Surrogate(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
	return r, r.Clock().Now()
}

// BenchmarkVacuum times a vacuum of a relation of 524,288 versions: the
// exclusive section a vacuum holds. Removing 16 versions, survivors inserted
// live or adopted off a log move as they are; removing half of the adopted
// versions, the other half move as copies (vacuum.go).
func BenchmarkVacuum(b *testing.B) {
	const n = 1 << 19
	for _, leg := range []struct {
		name    string
		closed  int
		adopted bool
	}{{"live", 16, false}, {"adopted", 16, true}, {"adopted-half", n / 2, true}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				r, horizon := vacuumRelation(b, n, leg.closed, leg.adopted)
				runtime.GC()
				b.StartTimer()
				if removed, err := r.Vacuum(horizon); err != nil || removed != leg.closed {
					b.Fatalf("Vacuum = %d, %v; want %d removed", removed, err, leg.closed)
				}
			}
		})
	}
}
