package storage

import (
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/vec"
)

// BenchmarkScanPaths times the read paths a vt-ordered store serves —
// vtRangeOrdered small and wide, Scan, Rollback early and late, and the batch
// reader whole and under a window — on 50,000 events, sealed except the tail,
// every tenth element closed. It uses nothing but the package's long-standing
// surface, so the file drops unchanged into an older tree: whenever a scan is
// restructured, build both trees' test binaries and alternate them (ROADMAP,
// standing hazards: a hot loop moved behind a closure has cost 15–60 %).
func BenchmarkScanPaths(b *testing.B) {
	const n = 50_000
	st := NewVTLog()
	for i := 0; i < n; i++ {
		tt := chronon.Chronon(10 * (i + 1))
		e := &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1, TTStart: tt, TTEnd: chronon.Forever, VT: element.EventAt(tt)}
		if i%10 == 9 {
			e.TTEnd = tt + 5
		}
		if err := st.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	st.Compact()
	mid := chronon.Chronon(10 * n / 2)
	read := func(set func(*BatchReader)) func() int {
		return func() int {
			r := NewBatchReader(st, true)
			set(r)
			var batch vec.Batch
			rows := 0
			for {
				ok, err := r.Next(&batch)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					return rows
				}
				rows += batch.N
			}
		}
	}
	for _, p := range []struct {
		name string
		run  func() int
	}{
		{"vtrange-point", func() int { got, _ := st.Timeslice(mid); return len(got) }},
		{"vtrange-1000", func() int { got, _ := st.VTRange(mid, mid+10_000); return len(got) }},
		{"scan", func() int { return st.Scan(func(*element.Element) bool { return true }) }},
		{"rollback-early", func() int { got, _ := st.Rollback(10 * 1000); return len(got) }},
		{"rollback-late", func() int { got, _ := st.Rollback(10 * n); return len(got) }},
		{"batchreader-all", read(func(r *BatchReader) { r.SetCurrentOnly() })},
		{"batchreader-window", read(func(r *BatchReader) { r.SetCurrentOnly(); r.SetVTWindow(mid, mid+50_000) })},
	} {
		b.Run(p.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += p.run()
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
