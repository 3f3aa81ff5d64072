package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

// esModel is the index the relation used to maintain: surrogate → stored
// version. The model test keeps it by hand beside a relation that finds
// elements by position.
type esModel map[surrogate.Surrogate]*element.Element

func (m esModel) check(t *testing.T, r *Relation, step string) {
	t.Helper()
	if r.Len() != len(m) {
		t.Fatalf("%s: %d versions, model holds %d", step, r.Len(), len(m))
	}
	var maxES surrogate.Surrogate
	for _, e := range r.Versions() {
		if got, ok := r.ByES(e.ES); !ok || !sameVersion(got, e) || !sameVersion(m[e.ES], e) {
			t.Fatalf("%s: ByES(%v) = %v, %v; versions hold %v, model %v", step, e.ES, got, ok, e, m[e.ES])
		}
		maxES = max(maxES, e.ES)
	}
	// Surrogates the relation never stored: gaps, and past either end.
	for _, es := range []surrogate.Surrogate{0, maxES + 1, maxES + 1000} {
		if got, ok := r.ByES(es); ok {
			t.Fatalf("%s: ByES(%v) found %v", step, es, got)
		}
	}
	for es := surrogate.Surrogate(1); es < maxES; es += 1 + maxES/64 {
		if got, ok := r.ByES(es); ok != (m[es] != nil) || !sameVersion(got, m[es]) {
			t.Fatalf("%s: ByES(%v) = %v, %v; model %v", step, es, got, ok, m[es])
		}
	}
}

// TestPositionalIndexModel drives seeded interleavings of insert, modify,
// delete, batch (stage all, then commit all, one stage abandoned), Vacuum
// and ApplyLog against the hand-kept map. ByES must equal the map after
// every step; the relation must stay map-free until the step that first
// puts a surrogate out of order (a replayed insert landing in a gap an
// abandoned stage left) and carry the map from exactly then on, through
// vacuums; and a duplicate or unknown surrogate is refused before and after
// the degrade, leaving the relation as it was. Seed 7 runs long enough that
// the search crosses at least three of the store's 256-element chunk
// boundaries before the degrade.
func TestPositionalIndexModel(t *testing.T) {
	for seed := int64(1); seed <= 7; seed++ {
		steps := 600
		if seed == 7 {
			steps = 3000 // Search crosses three chunk boundaries before the degrade
		}
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newEventRelation()
			m := esModel{}
			var live []surrogate.Surrogate
			var gaps []surrogate.Surrogate // burnt by abandoned stages
			reading := func(i int) Insertion {
				return Insertion{VT: element.EventAt(chronon.Chronon(i)),
					Invariant: []element.Value{element.String_("s")}, Varying: []element.Value{element.Float(float64(i))}}
			}
			replayed := func(es surrogate.Surrogate, i int) LogRecord {
				ins := reading(i)
				return LogRecord{Op: OpInsert, TT: r.Clock().Now(), Elem: &element.Element{ES: es, OS: 1,
					VT: ins.VT, Invariant: ins.Invariant, Varying: ins.Varying}}
			}
			closed := func(es surrogate.Surrogate) {
				m[es], _ = r.ByES(es)
				for i, l := range live {
					if l == es {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			refused := func(step, want string, rec LogRecord) {
				t.Helper()
				_, _, err := r.ApplyLog(rec)
				if wantErr := "relation readings: log apply: " + want; err == nil || !strings.HasPrefix(err.Error(), wantErr) {
					t.Fatalf("%s: ApplyLog = %v, want %q", step, err, wantErr)
				}
				m.check(t, r, step+" (refused)")
			}
			degradeAt := steps/2 + rng.Intn(steps/4)
			for i := 0; i < steps; i++ {
				step := fmt.Sprintf("step %d", i)
				wasOrdered := r.byES == nil
				breaksOrder := false
				switch op := rng.Intn(10); {
				case i == degradeAt:
					// The out-of-order surrogate: unused, below the last one.
					if len(gaps) == 0 || r.Len() == 0 || gaps[0] > r.Versions()[r.Len()-1].ES {
						t.Fatalf("%s: no gap below the last surrogate to replay into", step)
					}
					rec := replayed(gaps[0], i)
					if _, now, err := r.ApplyLog(rec); err != nil || !sameVersion(now, rec.Elem) {
						t.Fatalf("%s: out-of-order ApplyLog = %v, %v", step, now, err)
					}
					m[rec.Elem.ES], live, gaps = rec.Elem, append(live, rec.Elem.ES), gaps[1:]
					breaksOrder = true
				case i == degradeAt/2 || i == degradeAt+20:
					// A duplicate and an unknown surrogate, once on the ordered
					// relation and once on the degraded one.
					dup := r.Versions()[rng.Intn(r.Len())].ES
					refused(step, fmt.Sprintf("duplicate element surrogate %v", dup), replayed(dup, i))
					refused(step, fmt.Sprintf("duplicate element surrogate %v", r.Versions()[r.Len()-1].ES), replayed(r.Versions()[r.Len()-1].ES, i))
					ghosts := []surrogate.Surrogate{r.Versions()[r.Len()-1].ES + 5}
					if len(gaps) > 0 {
						ghosts = append(ghosts, gaps[0])
					}
					for _, ghost := range ghosts {
						refused(step, fmt.Sprintf("delete of unknown element %v", ghost),
							LogRecord{Op: OpDelete, TT: r.Clock().Now(), Elem: &element.Element{ES: ghost}})
					}
				case op < 4 || len(live) < 4:
					e, err := r.Insert(reading(i))
					if err != nil {
						t.Fatal(err)
					}
					m[e.ES], live = e, append(live, e.ES)
				case op == 4:
					es := live[rng.Intn(len(live))]
					repl, err := r.Modify(es, element.EventAt(chronon.Chronon(i)), []element.Value{element.Float(0)})
					if err != nil {
						t.Fatal(err)
					}
					closed(es)
					m[repl.ES], live = repl, append(live, repl.ES)
				case op == 5:
					es := live[rng.Intn(len(live))]
					if err := r.Delete(es); err != nil {
						t.Fatal(err)
					}
					closed(es)
				case op == 6:
					var staged []*element.Element
					for j := 0; j < 2+rng.Intn(6); j++ {
						e, err := r.StageInsert(reading(i))
						if err != nil {
							t.Fatal(err)
						}
						staged = append(staged, e)
					}
					drop := rng.Intn(len(staged)) // a rejected unit: its surrogate is burnt
					gaps = append(gaps, staged[drop].ES)
					for j, e := range staged {
						if j != drop {
							r.CommitInsert(e)
							m[e.ES], live = e, append(live, e.ES)
						}
					}
				case op == 7:
					horizon := r.Clock().Now() - chronon.Chronon(rng.Intn(400))
					if horizon < r.VacuumHorizon() {
						horizon = r.VacuumHorizon()
					}
					n, err := r.Vacuum(horizon)
					if err != nil {
						t.Fatal(err)
					}
					for es, e := range m {
						if e.TTEnd <= horizon {
							delete(m, es)
							continue
						}
						if n > 0 {
							m[es] = survivor(t, r, e)
						}
					}
				case op == 8: // the next frame of a log, in order
					es, _ := r.ReservedSurrogates()
					rec := replayed(es+1, i)
					if _, now, err := r.ApplyLog(rec); err != nil || !sameVersion(now, rec.Elem) {
						t.Fatalf("%s: ApplyLog = %v, %v", step, now, err)
					}
					m[rec.Elem.ES], live = rec.Elem, append(live, rec.Elem.ES)
				default:
					es := live[rng.Intn(len(live))]
					was, now, err := r.ApplyLog(LogRecord{Op: OpDelete, TT: r.Clock().Now(), Elem: &element.Element{ES: es}})
					if err != nil || !sameVersion(was, m[es]) || now.Current() || now.ES != es {
						t.Fatalf("%s: replayed delete = %v, %v, %v", step, was, now, err)
					}
					closed(es)
				}
				m.check(t, r, step)
				if i == degradeAt && steps > 600 && r.Len() <= 3*256 {
					t.Fatalf("%s: the degrade comes at %d versions, inside the first three chunks of 256", step, r.Len())
				}
				if degraded := r.byES != nil; degraded != (!wasOrdered || breaksOrder) {
					t.Fatalf("%s: degraded %v (was %v before the step, which broke the order: %v)", step, degraded, !wasOrdered, breaksOrder)
				}
			}
			if r.byES == nil || len(r.byES) != r.Len() {
				t.Fatalf("the degraded index holds %d of %d versions", len(r.byES), r.Len())
			}
		})
	}
}

// TestReplayRefusesWhatItRefused: the bulk Replay rejects a duplicate
// surrogate — next to its first use, or out of order behind later ones —
// and a delete of a surrogate never stored, with the errors it always had,
// and accepts a hand-built history whose surrogates do not ascend.
func TestReplayRefusesWhatItRefused(t *testing.T) {
	ins := func(es surrogate.Surrogate, tt chronon.Chronon) LogRecord {
		return LogRecord{Op: OpInsert, TT: tt, Elem: &element.Element{ES: es, OS: 1, VT: element.EventAt(tt),
			Invariant: []element.Value{element.String_("s")}, Varying: []element.Value{element.Float(1)}}}
	}
	del := func(es surrogate.Surrogate, tt chronon.Chronon) LogRecord {
		return LogRecord{Op: OpDelete, TT: tt, Elem: &element.Element{ES: es}}
	}
	for _, c := range []struct {
		name string
		recs []LogRecord
		want string // "" accepts
	}{
		{"ascending", []LogRecord{ins(1, 10), ins(2, 20), del(1, 30), ins(5, 40)}, ""},
		{"out of order", []LogRecord{ins(7, 10), ins(3, 20), ins(9, 30), del(3, 40), ins(1, 50), del(9, 60)}, ""},
		{"duplicate of the last", []LogRecord{ins(1, 10), ins(2, 20), ins(2, 30)}, "relation: replay record 2: duplicate element surrogate σ2"},
		{"duplicate behind", []LogRecord{ins(1, 10), ins(2, 20), ins(3, 30), ins(1, 40)}, "relation: replay record 3: duplicate element surrogate σ1"},
		{"duplicate after the degrade", []LogRecord{ins(7, 10), ins(3, 20), ins(9, 30), ins(3, 40)}, "relation: replay record 3: duplicate element surrogate σ3"},
		{"unknown in a gap", []LogRecord{ins(1, 10), ins(3, 20), del(2, 30)}, "relation: replay record 2: delete of unknown element σ2"},
		{"unknown past the end", []LogRecord{ins(1, 10), del(4, 20)}, "relation: replay record 1: delete of unknown element σ4"},
		{"deleted twice", []LogRecord{ins(1, 10), del(1, 20), del(1, 30)}, "relation: replay record 2: delete of already-deleted element σ1"},
	} {
		r, err := Replay(eventSchema(), tx.NewLogicalClock(0, 10), c.recs)
		if c.want != "" {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: Replay = %v, want %q", c.name, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Replay: %v", c.name, err)
			continue
		}
		m := esModel{}
		for _, e := range r.Versions() {
			m[e.ES] = e
		}
		m.check(t, r, c.name)
		if ascending := c.name == "ascending"; (r.byES == nil) != ascending {
			t.Errorf("%s: degraded %v", c.name, r.byES != nil)
		}
		for _, rec := range c.recs {
			if stored, ok := r.ByES(rec.Elem.ES); !ok || stored == rec.Elem {
				t.Errorf("%s: Replay stored the caller's element %v (found %v)", c.name, rec.Elem.ES, ok)
			}
		}
	}
}

// noSeek hides a clock's AdvanceTo: a time source that replay cannot move
// past what it finds in the log.
type noSeek struct{ tx.Clock }

// TestStampsNeverGoBackward: a relation whose clock restarted behind its
// backlog stamps just past the newest time it holds or has stamped — a
// staged batch not yet committed included — until the clock catches up,
// so replay redoes every record the live path stamps.
func TestStampsNeverGoBackward(t *testing.T) {
	r := New(eventSchema(), noSeek{tx.NewLogicalClock(0, 10)}) // issues 10, 20, …
	reading := Insertion{VT: element.EventAt(1), Invariant: []element.Value{element.String_("s")}, Varying: []element.Value{element.Float(1)}}
	if _, _, err := r.ApplyLog(LogRecord{Op: OpInsert, TT: 95, Elem: &element.Element{ES: 1, OS: 1,
		VT: reading.VT, Invariant: reading.Invariant, Varying: reading.Varying}}); err != nil {
		t.Fatal(err)
	}
	var got []chronon.Chronon
	for batch := 0; batch < 4; batch++ {
		var staged []*element.Element
		for i := 0; i < 3; i++ {
			e, err := r.StageInsert(reading)
			if err != nil {
				t.Fatal(err)
			}
			staged = append(staged, e)
			got = append(got, e.TTStart)
		}
		for _, e := range staged {
			r.CommitInsert(e)
		}
	}
	want := []chronon.Chronon{96, 97, 98, 99, 100, 101, 102, 103, 104, 105, 110, 120}
	if !slices.Equal(got, want) {
		t.Fatalf("stamps %v, want %v", got, want)
	}
	if _, err := Replay(eventSchema(), noSeek{tx.NewLogicalClock(0, 10)}, r.Backlog()); err != nil {
		t.Fatalf("replay refuses what the live path stamped: %v", err)
	}
}
