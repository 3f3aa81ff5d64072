package catalog

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wal"
)

// oneList checks that the entry's store is its relation's own version list:
// the same store, holding the same versions in the same order — the same
// element pointers, or, for a sealed chunk's, equal materializations.
func oneList(t *testing.T, e *Entry, step string) {
	t.Helper()
	_ = e.locked.View(func(r *relation.Relation) error {
		if e.store != r.Store() {
			t.Fatalf("%s: the entry's store is not the relation's", step)
		}
		if got, want := storage.Elements(e.store), r.Versions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the store holds %d elements, the relation %d versions, or not the same ones", step, len(got), len(want))
		}
		return nil
	})
}

// TestOneVersionList: a stored version is listed once. After every event
// that changes a relation's store — create, respecialize, a degrade, a run
// repair, a no-op and a removing vacuum, a boot from a snapshot plus a WAL
// tail, follower apply — the catalog's store is the relation's own.
func TestOneVersionList(t *testing.T) {
	root := t.TempDir()
	w, c := integOpen(t, root)
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatal(err)
	}
	oneList(t, e, "create")

	integInsert(t, e, 700, 100)
	if _, migrated, err := e.Respecialize(); err != nil || !migrated || e.store.Kind() != storage.VTOrdered {
		t.Fatalf("respecialize: migrated %v, %v, label %v", migrated, err, e.store.Kind())
	}
	oneList(t, e, "respecialize")

	integInsert(t, e, 1, 50) // before the last valid time: the inferred order breaks
	if r := e.Physical().Reasons; e.store.Kind() == storage.VTOrdered || e.store.Len() != 701 ||
		!strings.Contains(r[len(r)-1], "committed element violates the store order") {
		t.Fatalf("degrade: label %v, %d elements stored, reasons %q", e.store.Kind(), e.store.Len(), r)
	}
	oneList(t, e, "degrade")

	if e.Compact() == 0 {
		t.Fatal("nothing sealed; the repair needs a sealed run")
	}
	_ = e.locked.Exclusive(func(*relation.Relation) error {
		if !storage.CorruptTT(e.store, 0, false, 40) {
			t.Fatal("could not corrupt run 0")
		}
		return nil
	})
	if rep, err := c.VerifyRelation("emp"); err != nil || rep.Repaired == 0 {
		t.Fatalf("run repair: %+v, %v", rep, err)
	}
	oneList(t, e, "run repair")

	for _, el := range current(e).Elements[:10] {
		if err := remove(e, el.ES); err != nil {
			t.Fatal(err)
		}
	}
	gen := e.gen
	if n, err := e.Vacuum(1); err != nil || n != 0 || e.gen != gen {
		t.Fatalf("no-op vacuum: removed %d, %v; generation %d → %d", n, err, gen, e.gen)
	}
	oneList(t, e, "no-op vacuum")
	if n, err := e.Vacuum(chronon.Chronon(1 << 40)); err != nil || n != 10 || e.gen == gen {
		t.Fatalf("removing vacuum: removed %d, %v; generation %d → %d", n, err, gen, e.gen)
	}
	oneList(t, e, "removing vacuum")

	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	integInsert(t, e, 20, 2000) // the WAL tail
	if err := remove(e, current(e).Elements[0].ES); err != nil {
		t.Fatal(err)
	}
	want := e.locked.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, c = integOpen(t, root)
	defer w.Close()
	if w.Stats().Replayed == 0 {
		t.Fatal("boot replayed no WAL tail")
	}
	if e, err = c.Get("emp"); err != nil || e.locked.Len() != want {
		t.Fatalf("boot: %v, %d versions, want %d", err, e.locked.Len(), want)
	}
	oneList(t, e, "boot from a snapshot and a WAL tail")

	fs := wal.NewErrFS()
	w2, p := bootErrFS(t, fs)
	pe, err := p.Create(eventSchema("emp"))
	if err != nil {
		t.Fatal(err)
	}
	integInsert(t, pe, 300, 100)
	if err := remove(pe, current(pe).Elements[7].ES); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	f := New(Config{Follower: true, NewClock: logicalClock})
	if err := f.ApplyReplicated(recordsOf(t, fs)); err != nil {
		t.Fatal(err)
	}
	fe, err := f.Get("emp")
	if err != nil || fe.locked.Len() != 300 {
		t.Fatalf("follower: %v", err)
	}
	oneList(t, fe, "follower apply")
}
