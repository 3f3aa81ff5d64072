package catalog

// Concurrency hammer for the sharded catalog: creates, lookups, writes,
// declarations, queries, and snapshots all interleaving. Run under
// `go test -race`; the assertions only pin the final counts, the value is
// in the interleavings themselves.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
)

func TestCatalogConcurrentLifecycle(t *testing.T) {
	dir := t.TempDir()
	c := New(testConfig(dir))
	const (
		relations = 8
		writers   = 4
		readers   = 4
		perG      = 60
	)
	relName := func(i int) string { return fmt.Sprintf("rel-%d", i%relations) }

	// Phase 0: concurrent creates, with collisions expected — exactly one
	// winner per name.
	var wg sync.WaitGroup
	var created sync.Map
	for g := 0; g < 2*relations; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := c.Create(eventSchema(relName(g))); err == nil {
				if _, dup := created.LoadOrStore(relName(g), true); dup {
					t.Errorf("relation %q created twice", relName(g))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != relations {
		t.Fatalf("Len = %d, want %d", c.Len(), relations)
	}

	// Phase 1: writers, readers, a declarer, and a snapshotter all at once.
	// Writers keep vt below every issued tt (clock starts at 10), so the
	// concurrently declared retroactive constraint accepts every insert.
	retro := mustDescribe(t, constraint.Event{Spec: core.RetroactiveSpec()}, constraint.PerRelation)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e, err := c.Get(relName(w + i))
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if _, err := insert(e, relation.Insertion{VT: element.EventAt(chronon.Chronon(i % 5))}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e, err := c.Get(relName(r + i))
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				switch i % 4 {
				case 0:
					current(e)
				case 1:
					timeslice(e, chronon.Chronon(i%5))
				case 2:
					rollback(e, chronon.Chronon(i))
				case 3:
					e.Info()
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < relations; i++ {
			e, err := c.Get(relName(i))
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			// May reject if a concurrent insert races ahead of validation —
			// rejection is a correct outcome; only data races are bugs here.
			_ = e.Declare([]constraint.Descriptor{retro})
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := c.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Every write landed exactly once.
	total := 0
	for _, name := range c.Names() {
		e, err := c.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		total += e.Info().Versions
	}
	if want := writers * perG; total != want {
		t.Fatalf("total versions = %d, want %d", total, want)
	}

	// A final snapshot then reload sees the same state.
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("final Snapshot: %v", err)
	}
	c2 := New(testConfig(dir))
	if err := c2.Open(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	total2 := 0
	for _, name := range c2.Names() {
		e, _ := c2.Get(name)
		total2 += e.Info().Versions
	}
	if total2 != total {
		t.Fatalf("reloaded versions = %d, want %d", total2, total)
	}
}

// TestConcurrentFirstDecisions: relations that migrate at once race to
// create _sys_events; one create wins, the others find it, and every
// migration is one row.
func TestConcurrentFirstDecisions(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	ents := make([]*Entry, 8)
	for i := range ents {
		e, err := c.Create(eventSchema(fmt.Sprintf("mon-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		degenerateInserts(t, e, 48)
		ents[i] = e
	}
	var wg sync.WaitGroup
	for _, e := range ents {
		wg.Add(1)
		go func(e *Entry) {
			defer wg.Done()
			if _, migrated, err := e.Respecialize(); err != nil || !migrated {
				t.Errorf("%s: migrated %v, err %v", e.Name(), migrated, err)
			}
		}(e)
	}
	wg.Wait()
	history := c.Migrations()
	for _, e := range ents {
		if got := len(history[e.Name()]); got != 1 {
			t.Errorf("%s: %d migration rows, want 1", e.Name(), got)
		}
	}
	if st := c.IntegrityStats(); st.EventsUnrecorded != 0 || c.Len() != len(ents)+1 {
		t.Fatalf("%d rows unrecorded, %d relations; want 0 and %d", st.EventsUnrecorded, c.Len(), len(ents)+1)
	}
}
