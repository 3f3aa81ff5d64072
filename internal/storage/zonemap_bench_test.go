package storage

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/refmodel"
	"repro/internal/surrogate"
)

// ledgerElements builds n interval elements shaped like tsbench's
// ledger-general preload: starts wander ±2000 around 50·i, lengths 50–150,
// except that every second one of the first 2000 is 400,000 long — those
// 1000 all cover [200k, 400k) — and every tenth element is closed.
func ledgerElements(n int) []*element.Element {
	rng := rand.New(rand.NewSource(1))
	els := make([]*element.Element, n)
	for i := range els {
		lo := chronon.Chronon(max(50*int64(i)+rng.Int63n(4001)-2000, 0))
		length := chronon.Chronon(50 + rng.Int63n(101))
		if i < 2000 && i%2 == 0 {
			length = 400_000
		}
		tt := chronon.Chronon(10 * (i + 1))
		els[i] = &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1, TTStart: tt, TTEnd: chronon.Forever, VT: element.SpanOf(lo, lo+length)}
		if i%10 == 9 {
			els[i].TTEnd = tt + 5
		}
	}
	return els
}

var benchSink int

// BenchmarkScanGeneral times the scans of the organizations that keep no
// valid-time order — each pruned by the chunks' zone maps, beside the filter
// over every element that they replaced and must equal: a time-slice past the
// long intervals (a handful of results), one under them (≈ 1000 results), and
// the bitemporal read at the same small vt as stored nine tenths of the way
// through the history.
func BenchmarkScanGeneral(b *testing.B) {
	for _, n := range []int{20_000, 200_000} {
		els := ledgerElements(n)
		for _, kind := range []Kind{TTOrdered, Heap} {
			st := Advice{Store: kind}.New()
			for _, e := range els {
				if err := st.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			small, large, tt := chronon.Chronon(50*n*3/4), chronon.Chronon(300_000), els[n*9/10].TTStart
			// filter runs a definition over each run in turn: a filter of the
			// runs' concatenation is the concatenation of their filters.
			filter := func(query func([]*element.Element) []*element.Element) int {
				found := 0
				Runs(st)(func(run []*element.Element) bool {
					found += len(query(run))
					return true
				})
				return found
			}
			for _, q := range []struct {
				name           string
				pruned, filter func() int
			}{
				{"slice-small",
					func() int { got, _ := st.Timeslice(small); return len(got) },
					func() int {
						return filter(func(run []*element.Element) []*element.Element { return refmodel.Timeslice(run, small) })
					}},
				{"slice-1000",
					func() int { got, _ := st.Timeslice(large); return len(got) },
					func() int {
						return filter(func(run []*element.Element) []*element.Element { return refmodel.Timeslice(run, large) })
					}},
				{"as-of",
					func() int { got, _, _ := AsOf(context.Background(), st, small, tt); return len(got.Elements()) },
					func() int {
						return filter(func(run []*element.Element) []*element.Element { return refmodel.AsOf(run, small, tt) })
					}},
			} {
				if p, f := q.pruned(), q.filter(); p != f {
					b.Fatalf("%v/%d/%s: pruned scan finds %d, the filter %d", kind, n, q.name, p, f)
				}
				for _, side := range []struct {
					name string
					run  func() int
				}{{"pruned", q.pruned}, {"filter", q.filter}} {
					b.Run(fmt.Sprintf("%v/%dk/%s/%s", kind, n/1000, q.name, side.name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							benchSink += side.run()
						}
					})
				}
			}
		}
	}
}

// BenchmarkPush times one Insert, chunk and block allocation amortized in:
// what keeping the zone map costs the write path.
func BenchmarkPush(b *testing.B) {
	els := ledgerElements(1 << 16)
	for _, kind := range []Kind{TTOrdered, Heap} {
		b.Run(kind.String(), func(b *testing.B) {
			var st Store
			for i := 0; i < b.N; i++ {
				if i%len(els) == 0 {
					st = Advice{Store: kind}.New()
				}
				if err := st.Insert(els[i%len(els)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
