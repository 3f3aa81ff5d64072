package catalog

// Replay-equivalence fuzzing for the specialization loop: an arbitrary
// interleaving of inserts (order-friendly and order-breaking),
// respecializes, compactions, and deletes must leave a catalog that a
// crash-restart (WAL replay, no snapshot) reproduces exactly — same
// organization, same migration count, same extension. The codec fuzz
// below pins decodeRespecialize as a bijection on its valid domain, the
// same property the keyed-frame codec guarantees.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
)

func FuzzRespecializeReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 3})                      // degenerate run, then respecialize
	f.Add([]byte{0, 0, 3, 1, 3})                      // respecialize, violate, re-respecialize
	f.Add([]byte{0, 0, 0, 3, 4, 2, 0, 3})             // seal runs, delete, migrate again
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 3}, 12)) // repeated migrate attempts

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64] // bound per-iteration work
		}
		walDir := t.TempDir()
		wlog, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		c := New(Config{
			NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
			WAL:      wlog,
		})
		e, err := c.Create(eventSchema("fz"))
		if err != nil {
			t.Fatalf("Create: %v", err)
		}

		var last *element.Element
		ticks := 0 // clock.Next calls so far: each insert and delete stamps one tt
		step := 0
		for _, op := range ops {
			step++
			switch op % 5 {
			case 0: // degenerate insert: vt equals the tt the clock will issue
				vt := chronon.Chronon(10 * (ticks + 1))
				el, err := insert(e, relation.Insertion{VT: element.EventAt(vt)})
				if err == nil {
					last = el
					ticks++
				}
			case 1: // retroactive insert: breaks any adopted ordering
				el, err := insert(e, relation.Insertion{VT: element.EventAt(chronon.Chronon(op))})
				if err == nil {
					last = el
					ticks++
				}
			case 2: // delete the most recent survivor
				if last != nil {
					if remove(e, last.ES) == nil {
						ticks++
					}
					last = nil
				}
			case 3: // journaled migration when the advice changed
				if _, _, err := e.Respecialize(); err != nil {
					t.Fatalf("step %d: Respecialize: %v", step, err)
				}
			default: // derived-state compaction (never journaled)
				e.Compact()
			}
		}

		want := e.Physical()
		curWant, err := currentCtx(context.Background(), e)
		if err != nil {
			t.Fatalf("current: %v", err)
		}
		if err := wlog.Close(); err != nil {
			t.Fatalf("wal close: %v", err)
		}

		wlog2, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
		if err != nil {
			t.Fatalf("wal reopen: %v", err)
		}
		defer wlog2.Close()
		c2 := New(Config{
			NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
			WAL:      wlog2,
		})
		if err := c2.Open(); err != nil {
			t.Fatalf("replay Open: %v", err)
		}
		e2, err := c2.Get("fz")
		if err != nil {
			t.Fatalf("replayed Get: %v", err)
		}
		got := e2.Physical()
		if got.Org != want.Org || got.Source != want.Source {
			t.Fatalf("replayed org %v (%s), want %v (%s)", got.Org, got.Source, want.Org, want.Source)
		}
		gotHistory, wantHistory := c2.Migrations()["fz"], c.Migrations()["fz"]
		if got.Migrations != want.Migrations || len(gotHistory) != len(wantHistory) {
			t.Fatalf("replayed migrations %d/%d, want %d/%d",
				got.Migrations, len(gotHistory), want.Migrations, len(wantHistory))
		}
		if len(got.Adopted) != len(want.Adopted) {
			t.Fatalf("replayed adopted %v, want %v", got.Adopted, want.Adopted)
		}
		cur, err := currentCtx(context.Background(), e2)
		if err != nil {
			t.Fatalf("replayed current: %v", err)
		}
		sameElementsFuzz(t, curWant, cur)
	})
}

func sameElementsFuzz(t *testing.T, a, b answered) {
	t.Helper()
	ka, kb := resultKey(a), resultKey(b)
	if len(ka) != len(kb) {
		t.Fatalf("extension diverged across replay: %d elements before, %d after", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("element %d diverged across replay:\n before %s\n after  %s", i, ka[i], kb[i])
		}
	}
}

func FuzzDecodeRespecialize(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRespecialize(storage.VTOrdered, storage.SourceInferred, []core.Class{core.Degenerate}))
	f.Add(encodeRespecialize(storage.Heap, storage.SourceDefault, nil))
	f.Add([]byte{2, 0xff, 'x'}) // declared source length past the buffer

	f.Fuzz(func(t *testing.T, b []byte) {
		org, source, adopted, err := decodeRespecialize(b)
		if err != nil {
			return
		}
		if got := encodeRespecialize(org, source, adopted); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", b, got)
		}
	})
}

func TestRespecializeFrameRoundTrip(t *testing.T) {
	cases := []struct {
		org     storage.Kind
		source  string
		adopted []core.Class
	}{
		{storage.VTOrdered, storage.SourceInferred, []core.Class{core.Degenerate}},
		{storage.VTOrdered, storage.SourceDeclared, []core.Class{core.GloballySequentialEvents, core.GloballyNonDecreasingEvents}},
		{storage.TTOrdered, storage.SourceDefault, nil},
	}
	for _, cse := range cases {
		org, source, adopted, err := decodeRespecialize(encodeRespecialize(cse.org, cse.source, cse.adopted))
		if err != nil {
			t.Fatalf("round trip %v/%s: %v", cse.org, cse.source, err)
		}
		if org != cse.org || source != cse.source || len(adopted) != len(cse.adopted) {
			t.Fatalf("round trip %v/%s: got %v/%s %v", cse.org, cse.source, org, source, adopted)
		}
		for i := range adopted {
			if adopted[i] != cse.adopted[i] {
				t.Fatalf("adopted[%d] = %v, want %v", i, adopted[i], cse.adopted[i])
			}
		}
	}
	if _, _, _, err := decodeRespecialize(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	if _, _, _, err := decodeRespecialize([]byte{1, 5, 'a'}); err == nil {
		t.Fatal("truncated source accepted")
	}
}
