package relation

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// TestCloseOnALongLifeLine is the paper's one-sensor monitoring relation:
// a single object with 200 k versions. The relation keeps no life-line: a
// close finds its version by surrogate in the versions themselves and
// writes one slot — a pointer in the head chunk, a tt⊣ in a sealed one — so
// closes at the far end of the line cost what those at its head cost (equal
// within milliseconds; over a second against tens of milliseconds when a
// line was walked), and a life-line read before the closes is the reader's
// own — it still holds the open originals afterwards.
func TestCloseOnALongLifeLine(t *testing.T) {
	const n, batch = 200_000, 20_000
	r := newEventRelation()
	first := insertReading(t, r, 0, "s1", 0)
	ess := []surrogate.Surrogate{first.ES}
	for i := 1; i < n; i++ {
		e, err := r.Insert(Insertion{Object: first.OS, VT: element.EventAt(chronon.Chronon(i)),
			Invariant: []element.Value{element.String_("s1")}, Varying: []element.Value{element.Float(float64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		ess = append(ess, e.ES)
	}
	before := r.History(first.OS)
	closeAll := func(ess []surrogate.Surrogate) time.Duration {
		start := time.Now()
		for _, es := range ess {
			if err := r.Delete(es); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		}
		return time.Since(start)
	}
	tail := closeAll(ess[n-batch:])
	head := closeAll(ess[:batch])
	t.Logf("%d closes at the tail of the life-line %v, at its head %v", batch, tail, head)
	if tail > 4*head+300*time.Millisecond {
		t.Errorf("closes at the tail of a %d-version life-line took %v against %v at its head: the lookup walks the line", n, tail, head)
	}
	if r.byES != nil {
		t.Fatal("system-generated surrogates degraded the relation to a map")
	}
	line, versions := r.History(first.OS), r.Versions()
	if len(line) != n || len(before) != n {
		t.Fatalf("life-line has %d versions, had %d before the closes, want %d", len(line), len(before), n)
	}
	for i, es := range ess {
		closed := i < batch || i >= n-batch
		live, _ := r.ByES(es)
		if !sameVersion(line[i], live) || !sameVersion(versions[i], live) || live.Current() == closed {
			t.Fatalf("version %d: life-line %p, versions %p, ByES %p (current %v, want closed %v)",
				i, line[i], versions[i], live, live.Current(), closed)
		}
		if !before[i].Current() || sameVersion(before[i], live) == closed {
			t.Fatalf("version %d: the close reached a life-line read before it (%v, live %v)", i, before[i], live)
		}
	}
	// One object per close. Into the head chunk: the copy. Into a sealed
	// chunk: the closing, which holds the version materialized for the guards
	// to read and the closed copy, sharing its lists. (The backlog's
	// amortized growth rounds away; the clone used to bring two value arrays
	// with it.)
	closes := func(ess []surrogate.Surrogate) float64 {
		next := 0
		return testing.AllocsPerRun(len(ess)-1, func() {
			if err := r.Delete(ess[next]); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			next++
		})
	}
	if got := closes(ess[batch : batch+1000]); got != 1 {
		t.Errorf("a close into a sealed chunk allocates %.0f objects, want 1", got)
	}
	var fresh []surrogate.Surrogate
	for i := 0; i < 150; i++ { // 200,000 fill 781 chunks and 64 slots of the head
		e := insertReading(t, r, chronon.Chronon(n+i), "s1", 0)
		fresh = append(fresh, e.ES)
	}
	if got := closes(fresh); got != 1 {
		t.Errorf("a close into the head chunk allocates %.0f objects, want 1", got)
	}
}

// lifeLines is what the relation used to maintain beside its versions: a
// life-line per object and the objects in first-seen order. The test keeps
// it by hand and holds the derived accessors to it.
type lifeLines struct {
	lines map[surrogate.Surrogate][]*element.Element
	order []surrogate.Surrogate
}

func (l *lifeLines) insert(e *element.Element) {
	if _, seen := l.lines[e.OS]; !seen {
		l.order = append(l.order, e.OS)
	}
	l.lines[e.OS] = append(l.lines[e.OS], e)
}

func (l *lifeLines) swap(old, repl *element.Element) {
	for i, e := range l.lines[old.OS] {
		if sameVersion(e, old) {
			l.lines[old.OS][i] = repl
		}
	}
}

// vacuum drops the dead versions and the objects left without one. The
// maintained index kept the survivors in the order their objects were first
// seen, vacuumed versions included; a reload of the vacuumed backlog has
// always listed them by their first surviving version, and so does the
// derived accessor — the order is re-sorted to that.
func (l *lifeLines) vacuum(horizon chronon.Chronon) {
	var order []surrogate.Surrogate
	for _, os := range l.order {
		var kept []*element.Element
		for _, e := range l.lines[os] {
			if e.TTEnd > horizon {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(l.lines, os)
			continue
		}
		l.lines[os] = kept
		order = append(order, os)
	}
	sort.SliceStable(order, func(i, j int) bool { return l.lines[order[i]][0].ES < l.lines[order[j]][0].ES })
	l.order = order
}

func (l *lifeLines) check(t *testing.T, r *Relation, when string) {
	t.Helper()
	if got := r.Objects(); !reflect.DeepEqual(got, l.order) {
		t.Fatalf("%s: Objects %v, want %v", when, got, l.order)
	}
	if got := r.LiveObjects(); !reflect.DeepEqual(got, l.order) {
		t.Fatalf("%s: LiveObjects %v, want %v", when, got, l.order)
	}
	sameVersions := func(what string, got, want []*element.Element) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s has %d versions, want %d", when, what, len(got), len(want))
		}
		for i := range got {
			if !sameVersion(got[i], want[i]) {
				t.Fatalf("%s: %s version %d is %v, want %v", when, what, i, got[i], want[i])
			}
		}
	}
	parts := r.Partitions()
	if len(parts) != len(l.lines) {
		t.Fatalf("%s: %d partitions, want %d", when, len(parts), len(l.lines))
	}
	for os, want := range l.lines {
		sameVersions("History", r.History(os), want)
		sameVersions("partition", parts[os], want)
	}
	if got := r.History(surrogate.Surrogate(1 << 40)); got != nil {
		t.Fatalf("%s: life-line of an unknown object: %v", when, got)
	}
}

// TestLifeLinesAreDerivedFromVersions: History, Objects, Partitions and
// LiveObjects return what the maintained indexes returned — same order,
// same pointers after closes — through inserts, modifications, deletes and
// two vacuums, the second of which empties whole life-lines.
func TestLifeLinesAreDerivedFromVersions(t *testing.T) {
	r := newEventRelation()
	want := &lifeLines{lines: map[surrogate.Surrogate][]*element.Element{}}
	want.check(t, r, "empty")

	var live []*element.Element
	closeOf := func(old *element.Element) {
		closed, _ := r.ByES(old.ES)
		want.swap(old, closed)
	}
	for i := 0; i < 400; i++ {
		switch {
		case i%7 == 3 && len(live) > 0: // modify the oldest live version
			old := live[0]
			repl, err := r.Modify(old.ES, element.EventAt(chronon.Chronon(i)), []element.Value{element.Float(float64(i))})
			if err != nil {
				t.Fatal(err)
			}
			closeOf(old)
			want.insert(repl)
			live = append(live[1:], repl)
		case i%5 == 4 && len(live) > 0: // delete one from the middle
			k := len(live) / 2
			if err := r.Delete(live[k].ES); err != nil {
				t.Fatal(err)
			}
			closeOf(live[k])
			live = append(live[:k], live[k+1:]...)
		default: // a new version: every third one starts a new object
			ins := Insertion{VT: element.EventAt(chronon.Chronon(i)),
				Invariant: []element.Value{element.String_("s")}, Varying: []element.Value{element.Float(1)}}
			if i%3 != 0 && len(live) > 0 {
				ins.Object = live[i%len(live)].OS
			}
			e, err := r.Insert(ins)
			if err != nil {
				t.Fatal(err)
			}
			want.insert(e)
			live = append(live, e)
		}
		if i%50 == 49 {
			want.check(t, r, "before vacuum")
		}
	}
	now := r.Clock().Now()
	for _, horizon := range []chronon.Chronon{now / 2, now} {
		if _, err := r.Vacuum(horizon); err != nil {
			t.Fatal(err)
		}
		want.vacuum(horizon)
		want.check(t, r, "after vacuum")
	}
	if len(want.order) == 0 || len(want.order) == len(r.Versions()) {
		t.Fatalf("degenerate run: %d objects over %d versions", len(want.order), len(r.Versions()))
	}
}
