package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
	"repro/internal/tx"
)

// backlogModel is the backlog as the relation used to store it: one record
// appended per insert and per delete, the insert record repointed to the
// closed clone on a close, and both filtered by the clone's tt⊣ on vacuum.
type backlogModel []LogRecord

func (m *backlogModel) insert(e *element.Element) {
	*m = append(*m, LogRecord{Op: OpInsert, TT: e.TTStart, Elem: e})
}

func (m *backlogModel) close(old, closed *element.Element) {
	for i := range *m {
		if rec := &(*m)[i]; rec.Op == OpInsert && sameVersion(rec.Elem, old) {
			rec.Elem = closed
		}
	}
	*m = append(*m, LogRecord{Op: OpDelete, TT: closed.TTEnd, Elem: closed})
}

// vacuum keeps the records of the survivors; when r's vacuum removed
// something, they point at the copies it moved the survivors as.
func (m *backlogModel) vacuum(t *testing.T, r *Relation, horizon chronon.Chronon, removed int) {
	t.Helper()
	kept := (*m)[:0]
	for _, rec := range *m {
		if rec.Elem.TTEnd > horizon {
			if removed > 0 {
				rec.Elem = survivor(t, r, rec.Elem)
			}
			kept = append(kept, rec)
		}
	}
	*m = kept
}

func (m backlogModel) check(t *testing.T, r *Relation, step string) {
	t.Helper()
	got := r.Backlog()
	if len(got) != len(m) {
		t.Fatalf("%s: backlog holds %d records, the model %d", step, len(got), len(m))
	}
	for i := range m {
		if got[i].Op != m[i].Op || got[i].TT != m[i].TT || !sameVersion(got[i].Elem, m[i].Elem) {
			t.Fatalf("%s: record %d is %v %v %v, the model's %v %v %v",
				step, i, got[i].Op, got[i].TT, got[i].Elem, m[i].Op, m[i].TT, m[i].Elem)
		}
	}
}

// replayedModel is what the stored backlog held after Replay(records): each
// record in input order, pointing at the final version of its surrogate —
// the closed clone once a delete closed it.
func replayedModel(t *testing.T, r *Relation, records []LogRecord) backlogModel {
	t.Helper()
	m := make(backlogModel, len(records))
	for i, rec := range records {
		e, ok := r.ByES(rec.Elem.ES)
		if !ok {
			t.Fatalf("record %d: %v is not stored", i, rec.Elem.ES)
		}
		m[i] = LogRecord{Op: rec.Op, TT: rec.TT, Elem: e}
	}
	return m
}

// backwardsHistory is a hand-built backlog whose surrogates do not ascend,
// so the replayed relation degrades to its surrogate map; it holds a
// delete at the transaction time of the insert just before it, and a
// modify (a delete and an insert at one transaction time).
func backwardsHistory() []LogRecord {
	ins := func(es surrogate.Surrogate, tt chronon.Chronon) LogRecord {
		return LogRecord{Op: OpInsert, TT: tt, Elem: &element.Element{ES: es, OS: 1, VT: element.EventAt(tt),
			Invariant: []element.Value{element.String_("s")}, Varying: []element.Value{element.Float(float64(es))}}}
	}
	del := func(es surrogate.Surrogate, tt chronon.Chronon) LogRecord {
		return LogRecord{Op: OpDelete, TT: tt, Elem: &element.Element{ES: es}}
	}
	return []LogRecord{
		ins(50, 10), ins(30, 20), del(50, 30), ins(90, 30), ins(10, 40), del(10, 40),
		del(30, 50), ins(70, 50), ins(60, 60), del(90, 70),
	}
}

func TestReplayedBacklogKeepsItsOrder(t *testing.T) {
	records := backwardsHistory()
	r, err := Replay(eventSchema(), tx.NewLogicalClock(0, 10), records)
	if err != nil {
		t.Fatal(err)
	}
	if r.byES == nil {
		t.Fatal("a history whose surrogates go backwards did not degrade")
	}
	m := replayedModel(t, r, records)
	m.check(t, r, "replay")
	removed, err := r.Vacuum(40)
	if err != nil {
		t.Fatal(err)
	}
	m.vacuum(t, r, 40, removed)
	m.check(t, r, "vacuum 40")

	// A same-transaction-time delete after an insert, on a relation whose
	// surrogates ascend.
	records = []LogRecord{records[0], {Op: OpDelete, TT: 10, Elem: &element.Element{ES: 50}}, records[1]}
	if r, err = Replay(eventSchema(), tx.NewLogicalClock(0, 10), records); err != nil {
		t.Fatal(err)
	}
	replayedModel(t, r, records).check(t, r, "same-tt delete")
}

// TestBacklogAgainstStoredModel drives seeded interleavings of insert,
// batch (stage all, commit all but an abandoned one), delete, modify,
// vacuum and ApplyLog, from an empty relation and from a replayed one whose
// surrogates go backwards, and holds Backlog() to the stored model after
// every step. A log record older than the model's last is refused. Seeds 9
// (ordered) and 10 (degraded) run long enough to cross at least three of the
// store's 256-element chunk boundaries.
func TestBacklogAgainstStoredModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		steps := 500
		if seed > 8 {
			steps = 3000
		}
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r, m := newEventRelation(), backlogModel{}
			if seed%2 == 0 {
				records := backwardsHistory()
				var err error
				if r, err = Replay(eventSchema(), tx.NewLogicalClock(0, 10), records); err != nil {
					t.Fatal(err)
				}
				m = replayedModel(t, r, records)
			}
			reading := func(i int) Insertion {
				return Insertion{VT: element.EventAt(chronon.Chronon(i)),
					Invariant: []element.Value{element.String_("s")}, Varying: []element.Value{element.Float(float64(i))}}
			}
			current := func() *element.Element {
				cur := r.Current()
				if len(cur) == 0 {
					return nil
				}
				return cur[rng.Intn(len(cur))]
			}
			closeOf := func(old *element.Element) {
				closed, _ := r.ByES(old.ES)
				m.close(old, closed)
			}
			longest := 0
			for i := 0; i < steps; i++ {
				step := fmt.Sprintf("step %d", i)
				old := current()
				switch op := rng.Intn(10); {
				case op < 3 || old == nil:
					e, err := r.Insert(reading(i))
					if err != nil {
						t.Fatal(err)
					}
					m.insert(e)
				case op == 3:
					var staged []*element.Element
					for j := 0; j < 1+rng.Intn(8); j++ {
						e, err := r.StageInsert(reading(i))
						if err != nil {
							t.Fatal(err)
						}
						staged = append(staged, e)
					}
					drop := rng.Intn(len(staged) + 1) // len(staged): none abandoned
					for j, e := range staged {
						if j != drop {
							r.CommitInsert(e)
							m.insert(e)
						}
					}
				case op == 4:
					if err := r.Delete(old.ES); err != nil {
						t.Fatal(err)
					}
					closeOf(old)
				case op == 5:
					repl, err := r.Modify(old.ES, element.EventAt(chronon.Chronon(i)), []element.Value{element.Float(0)})
					if err != nil {
						t.Fatal(err)
					}
					closeOf(old)
					m.insert(repl)
				case op == 6:
					horizon := max(r.Clock().Now()-chronon.Chronon(rng.Intn(300)), r.VacuumHorizon())
					removed, err := r.Vacuum(horizon)
					if err != nil {
						t.Fatal(err)
					}
					m.vacuum(t, r, horizon, removed)
				case op == 7: // a log's insert frame, at the last record's tt
					es, _ := r.ReservedSurrogates()
					ins := reading(i)
					rec := LogRecord{Op: OpInsert, TT: r.Clock().Now(), Elem: &element.Element{ES: es + 1, OS: 1,
						VT: ins.VT, Invariant: ins.Invariant, Varying: ins.Varying}}
					if len(m) > 0 {
						rec.TT = m[len(m)-1].TT
					}
					if _, _, err := r.ApplyLog(rec); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					m.insert(rec.Elem)
				case op == 8: // a log's delete frame
					if _, _, err := r.ApplyLog(LogRecord{Op: OpDelete, TT: r.Clock().Now(), Elem: &element.Element{ES: old.ES}}); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					closeOf(old)
				default: // a frame from before the last record
					if len(m) == 0 {
						continue
					}
					last := m[len(m)-1].TT
					_, _, err := r.ApplyLog(LogRecord{Op: OpDelete, TT: last - 1, Elem: &element.Element{ES: old.ES}})
					if want := fmt.Sprintf("relation readings: log apply: tt %v before %v", last-1, last); err == nil || err.Error() != want {
						t.Fatalf("%s: stale ApplyLog = %v, want %q", step, err, want)
					}
				}
				m.check(t, r, step)
				longest = max(longest, r.Len())
			}
			if steps > 500 && longest <= 3*256 {
				t.Fatalf("the relation peaked at %d versions, inside the first three chunks of 256", longest)
			}
		})
	}
}
