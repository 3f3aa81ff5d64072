package storage

import (
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// workload is a deterministic element sequence in arrival (tt) order, with
// some elements closed afterwards the way the engine closes them: a clone
// carries the finalized tt⊣ and Replace swaps it in.
type workload struct {
	name  string
	kind  element.TimestampKind
	elems []*element.Element       // arrival order, post-close pointers
	close map[int]*element.Element // index → original open element
}

func mkWorkload(name string, kind element.TimestampKind, n int, gen func(i int, rng *rand.Rand) *element.Element, closeFrac float64, seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := workload{name: name, kind: kind, close: map[int]*element.Element{}}
	for i := 0; i < n; i++ {
		w.elems = append(w.elems, gen(i, rng))
	}
	// Close a fraction by cloning with a finalized TTEnd, exactly like the
	// engine's copy-on-close delete.
	lastTT := w.elems[n-1].TTStart
	for i := range w.elems {
		if rng.Float64() >= closeFrac {
			continue
		}
		orig := w.elems[i]
		closed := *orig
		closed.TTEnd = lastTT.Add(1 + int64(i%7))
		w.close[i] = orig
		w.elems[i] = &closed
	}
	return w
}

func buildStores(t *testing.T, w workload) map[Kind]Store {
	t.Helper()
	stores := map[Kind]Store{}
	for _, k := range Kinds() {
		st := Advice{Store: k}.New()
		ok := true
		for i := range w.elems {
			// Insert the original (open) element, then Replace with the
			// closed clone, mirroring the engine's mutation order.
			ins := w.elems[i]
			if orig := w.close[i]; orig != nil {
				ins = orig
			}
			if err := st.Insert(ins); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			continue // this organization is not legal for the workload
		}
		for i, orig := range w.close {
			st.Replace(orig, w.elems[i])
		}
		stores[k] = st
	}
	return stores
}

func elemIDs(es []*element.Element) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = uint64(e.ES)
	}
	return out
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// classWorkloads builds one workload per specialization-class shape the
// advisor distinguishes (the powerset collapses to these generators: what
// matters for migration legality is which orders the data satisfies).
func classWorkloads(n int) []workload {
	seq := func(i int, rng *rand.Rand) *element.Element {
		tt := chronon.Chronon(10 * (i + 1))
		return &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: tt, TTEnd: chronon.Forever, VT: element.EventAt(tt)}
	}
	nondec := func(i int, rng *rand.Rand) *element.Element {
		tt := chronon.Chronon(10 * (i + 1))
		return &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: tt, TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(5*(i+1) + rng.Intn(3)))}
	}
	general := func(i int, rng *rand.Rand) *element.Element {
		tt := chronon.Chronon(10 * (i + 1))
		return &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: tt, TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(rng.Intn(10 * n)))}
	}
	seqIv := func(i int, rng *rand.Rand) *element.Element {
		tt := chronon.Chronon(10 * (i + 1))
		return &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: tt, TTEnd: chronon.Forever,
			VT: element.SpanOf(tt, tt.Add(int64(1+rng.Intn(8))))}
	}
	genIv := func(i int, rng *rand.Rand) *element.Element {
		tt := chronon.Chronon(10 * (i + 1))
		vs := chronon.Chronon(rng.Intn(10 * n))
		return &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: tt, TTEnd: chronon.Forever,
			VT: element.SpanOf(vs, vs.Add(int64(1+rng.Intn(30))))}
	}
	return []workload{
		mkWorkload("degenerate", element.EventStamp, n, seq, 0.2, 1),
		mkWorkload("non-decreasing events", element.EventStamp, n, nondec, 0.2, 2),
		mkWorkload("general events", element.EventStamp, n, general, 0.3, 3),
		mkWorkload("sequential intervals", element.IntervalStamp, n, seqIv, 0.2, 4),
		mkWorkload("general intervals", element.IntervalStamp, n, genIv, 0.3, 5),
	}
}

// TestMigrationEquivalence is the powerset-of-classes property: for every
// workload shape and every pair of legal organizations (a migration is a
// rebuild of the target from the source's elements), timeslice, VTRange and
// rollback answers are identical element for element — touched counts
// aside — and stay identical after the target seals frozen runs.
func TestMigrationEquivalence(t *testing.T) {
	const n = 700 // > 2·runSize so compaction seals multiple runs
	for _, w := range classWorkloads(n) {
		t.Run(w.name, func(t *testing.T) {
			stores := buildStores(t, w)
			if len(stores) < 2 {
				t.Fatalf("workload %s: only %d legal organization(s)", w.name, len(stores))
			}
			base := stores[Heap] // Heap accepts everything
			probes := []chronon.Chronon{0, 5, 37, 100, 1234, 3500, 7001, chronon.Chronon(10 * n)}

			check := func(label string, st Store) {
				t.Helper()
				for _, p := range probes {
					if got, _ := st.Timeslice(p); !sameIDs(elemIDs(got), func() []uint64 { g, _ := base.Timeslice(p); return elemIDs(g) }()) {
						t.Fatalf("%s: Timeslice(%v) diverges from heap", label, p)
					}
					if got, _ := st.Rollback(p); !sameIDs(elemIDs(got), func() []uint64 { g, _ := base.Rollback(p); return elemIDs(g) }()) {
						t.Fatalf("%s: Rollback(%v) diverges from heap", label, p)
					}
					hi := p.Add(97)
					if got, _ := st.VTRange(p, hi); !sameIDs(elemIDs(got), func() []uint64 { g, _ := base.VTRange(p, hi); return elemIDs(g) }()) {
						t.Fatalf("%s: VTRange(%v, %v) diverges from heap", label, p, hi)
					}
				}
			}

			for k, st := range stores {
				check(k.String(), st)
				// Migrations: rebuild every other legal organization from
				// this store's elements and check it answers identically.
				for k2 := range stores {
					if k2 == k {
						continue
					}
					target := Advice{Store: k2}.New()
					for _, e := range Elements(st) {
						if err := target.Insert(e); err != nil {
							t.Fatalf("migrate %v→%v: %v", k, k2, err)
						}
					}
					check(k.String()+"→"+k2.String(), target)
				}
				// Sealed runs must not change answers (only touched).
				if c, ok := st.(Compacter); ok && k != Heap {
					if sealed := c.Compact(); sealed == 0 {
						t.Fatalf("%v: Compact sealed nothing at n=%d", k, n)
					}
					check(k.String()+" compacted", st)
					check(k.String()+" compacted snapshot", st.Snapshot())
				}
			}
		})
	}
}

// Compacted answers must also survive post-seal mutation: a close after
// sealing widens the zone map of the chunk it lands in, sealed or not.
func TestCompactThenClose(t *testing.T) {
	st := NewVTLog()
	var elems []*element.Element
	for i := 0; i < 600; i++ {
		e := &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: chronon.Chronon(i + 1), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(i + 1))}
		elems = append(elems, e)
		if err := st.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if st.Compact() != 512 {
		t.Fatalf("sealed %d, want 512", Compaction(st).Sealed)
	}
	snap := st.Snapshot() // pins pre-close state
	// Close element 100 (inside run 0) after sealing.
	closed := *elems[100]
	closed.TTEnd = 700
	st.Replace(elems[100], &closed)

	if got, _ := st.Timeslice(101); len(got) != 0 {
		t.Fatalf("closed element still current: %v", elemIDs(got))
	}
	if got, _ := snap.(*RunStore).Timeslice(101); len(got) != 1 || !sameVersion(got[0], elems[100]) {
		t.Fatalf("snapshot lost the pinned open element: %v", elemIDs(got))
	}
	// Rollback at tt=650 must still see it (present until 700) despite the
	// run metadata having been sealed while it was open.
	if got, _ := st.Rollback(650); len(got) != 600 {
		t.Fatalf("Rollback(650) = %d elements, want 600", len(got))
	}
	if got, _ := st.Rollback(701); len(got) != 599 {
		t.Fatalf("Rollback(701) = %d elements, want 599", len(got))
	}
}

// Run skipping must actually reduce touched work on the shapes it targets.
func TestRunSkippingReducesTouched(t *testing.T) {
	st := NewVTLog()
	var open []*element.Element
	for i := 0; i < 1024; i++ {
		e := &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: chronon.Chronon(i + 1), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(i + 1))}
		open = append(open, e)
		if err := st.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Close the first half, then seal.
	for i := 0; i < 512; i++ {
		closed := *open[i]
		closed.TTEnd = 2000
		st.Replace(open[i], &closed)
	}
	if st.Compact() == 0 {
		t.Fatal("no runs sealed")
	}
	// A rollback far in the future sees only the open half; the two dead
	// runs cost one probe each instead of 512 visits.
	_, touched := st.Rollback(5000)
	if touched > 514 {
		t.Fatalf("Rollback touched %d, want ≤ 514 with dead runs skipped", touched)
	}
	// Timeslice near the end must not scan the sealed prefix — the binary
	// search lands next to the answer exactly as it would uncompacted.
	_, touched = st.Timeslice(1000)
	if touched > 8 {
		t.Fatalf("Timeslice touched %d, want the probe plus the answer", touched)
	}
	// A range over the dead half crosses two sealed all-closed runs: each
	// costs one metadata probe instead of 256 visits.
	got, touched := st.VTRange(10, 400)
	if len(got) != 0 {
		t.Fatalf("VTRange over closed half returned %d elements", len(got))
	}
	if touched > 6 {
		t.Fatalf("VTRange touched %d, want dead runs skipped", touched)
	}
}

func TestStoreBytesShrinksOnCompact(t *testing.T) {
	st := NewVTLog()
	for i := 0; i < 512; i++ {
		e := &element.Element{ES: surrogate.Surrogate(i + 1), OS: 1,
			TTStart: chronon.Chronon(i + 1), TTEnd: chronon.Forever,
			VT: element.EventAt(chronon.Chronon(i + 1))}
		if err := st.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	before := StoreBytes(st)
	if before != 512*flatStampBytes {
		t.Fatalf("flat StoreBytes = %d", before)
	}
	st.Compact()
	after := StoreBytes(st)
	if after*4 > before {
		t.Fatalf("compaction: %d → %d bytes; want ≥ 4× reduction on a regular log", before, after)
	}
	// Per run, tt⊢ and vt⊢ are a first value and 255 one-byte deltas, vt⊣
	// the same (an event ends where it starts), and tt⊣ a nine-byte Forever
	// and 255 zero deltas; the first values are zigzag varints, one byte
	// for 1 and two for 257. The footprint reports have always given this
	// log that figure.
	const want = (256 + 264 + 256 + 256) + (257 + 264 + 257 + 257)
	if after != want {
		t.Fatalf("two sealed runs measure %d bytes, want %d", after, want)
	}
	if StoreBytes(NewHeap()) != 0 {
		t.Fatal("empty heap has nonzero StoreBytes")
	}
}

// AdviseAuto sanity: observed classes license the same organizations as
// declarations, are marked inferred, and never enable the bounded pushdown.
func TestAdviseAutoSources(t *testing.T) {
	a := AdviseAuto(nil, []core.Class{core.GloballySequentialEvents}, element.EventStamp)
	if a.Store != VTOrdered || a.Source != SourceInferred {
		t.Fatalf("observed sequential: %+v", a)
	}
	d := AdviseAuto([]core.Class{core.GloballySequentialEvents}, nil, element.EventStamp)
	if d.Store != VTOrdered || d.Source != SourceDeclared {
		t.Fatalf("declared sequential: %+v", d)
	}
	if d.Reasons[len(d.Reasons)-1] == a.Reasons[len(a.Reasons)-1] {
		t.Fatal("inferred advice not annotated as revocable")
	}
	// Observed strongly-bounded evidence must not enable the pushdown.
	ob := AdviseAuto(nil, []core.Class{core.StronglyBounded}, element.EventStamp)
	for _, r := range ob.Reasons {
		if r == "two-sided bound declared: enable tt-window pushdown for valid-time queries (EnableBoundedPushdown)" {
			t.Fatal("observed bound enabled the pushdown")
		}
	}
	def := AdviseAuto(nil, nil, element.EventStamp)
	if def.Source != SourceDefault {
		t.Fatalf("no classes: source %q", def.Source)
	}
	// Declared evidence wins the provenance tie when both channels license.
	both := AdviseAuto([]core.Class{core.Degenerate}, []core.Class{core.Degenerate}, element.EventStamp)
	if both.Source != SourceDeclared {
		t.Fatalf("declared+observed: source %q", both.Source)
	}
}
