package catalog

// Resilience behaviors: WAL poisoning flips the catalog into read-only
// degraded mode (reads serve, every mutation fails typed), idempotency
// keys dedup replayed mutations — in memory and across a WAL-replay
// reboot — and keyed WAL frames round-trip.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/surrogate"
	"repro/internal/tx"
	"repro/internal/wal"
)

// bootErrFS opens a SyncAlways WAL over fs and a catalog on it.
func bootErrFS(t *testing.T, fs *wal.ErrFS) (*wal.Log, *Catalog) {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	c := New(Config{Dir: t.TempDir(), NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w})
	if err := c.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	return w, c
}

func TestWALPoisonFlipsReadOnly(t *testing.T) {
	fs := wal.NewErrFS()
	w, c := bootErrFS(t, fs)
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	el, err := insert(e, relation.Insertion{VT: element.EventAt(100)})
	if err != nil {
		t.Fatalf("healthy insert: %v", err)
	}

	// Fail the next file op: the insert's WAL append errors and the log
	// poisons fail-stop.
	fs.FailAt(1, wal.FaultError)
	if _, err := insert(e, relation.Insertion{VT: element.EventAt(200)}); err == nil {
		t.Fatal("insert over injected fault succeeded")
	}
	if w.Err() == nil {
		t.Fatal("log did not poison")
	}

	// Every mutation path now fails typed ErrReadOnly.
	if _, err := insert(e, relation.Insertion{VT: element.EventAt(300)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert on poisoned log = %v, want ErrReadOnly", err)
	}
	if err := remove(e, el.ES); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("delete on poisoned log = %v, want ErrReadOnly", err)
	}
	if _, err := modify(e, el.ES, element.EventAt(150), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("modify on poisoned log = %v, want ErrReadOnly", err)
	}
	if _, err := c.Create(eventSchema("dept")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("create on poisoned log = %v, want ErrReadOnly", err)
	}
	if _, err := c.Snapshot(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot on poisoned log = %v, want ErrReadOnly", err)
	}
	if err := c.Degraded(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Degraded = %v, want ErrReadOnly", err)
	}

	// Reads keep serving the pre-poison state.
	if got := len(current(e).Elements); got != 1 {
		t.Fatalf("degraded Current has %d elements, want 1", got)
	}

	// The failed and refused inserts must not be visible: only the acked
	// element exists.
	_ = e.Locked().View(func(r *relation.Relation) error {
		if r.Len() != 1 {
			t.Fatalf("relation holds %d versions, want 1 acked", r.Len())
		}
		return nil
	})
}

func TestIdempotencyKeyDedupsAndSurvivesReplay(t *testing.T) {
	fs := wal.NewErrFS()
	_, c := bootErrFS(t, fs)
	ctx := context.Background()
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	el, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(100)}, "ins-1")
	if err != nil {
		t.Fatalf("keyed insert: %v", err)
	}
	// Replay with the same key: the original element, no second event.
	again, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(100)}, "ins-1")
	if err != nil {
		t.Fatalf("replayed insert: %v", err)
	}
	if again.ES != el.ES {
		t.Fatalf("replay returned ES %v, want original %v", again.ES, el.ES)
	}
	// Same key, different operation: typed reuse error.
	if err := e.DeleteKeyed(ctx, el.ES, "ins-1"); !errors.Is(err, ErrIdemReuse) {
		t.Fatalf("key reuse across ops = %v, want ErrIdemReuse", err)
	}

	victim, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(200)}, "ins-2")
	if err != nil {
		t.Fatalf("second insert: %v", err)
	}
	if err := e.DeleteKeyed(ctx, victim.ES, "del-1"); err != nil {
		t.Fatalf("keyed delete: %v", err)
	}
	ttEnd := mustByES(t, e, victim.ES).TTEnd
	// Replayed delete: acknowledged without touching the element again.
	if err := e.DeleteKeyed(ctx, victim.ES, "del-1"); err != nil {
		t.Fatalf("replayed delete: %v", err)
	}
	if got := mustByES(t, e, victim.ES).TTEnd; got != ttEnd {
		t.Fatalf("replayed delete moved TTEnd %v -> %v", ttEnd, got)
	}

	repl, err := e.ModifyKeyed(ctx, el.ES, element.EventAt(150), nil, "mod-1")
	if err != nil {
		t.Fatalf("keyed modify: %v", err)
	}
	replAgain, err := e.ModifyKeyed(ctx, el.ES, element.EventAt(150), nil, "mod-1")
	if err != nil {
		t.Fatalf("replayed modify: %v", err)
	}
	if replAgain.ES != repl.ES {
		t.Fatalf("replayed modify returned ES %v, want %v", replAgain.ES, repl.ES)
	}
	versions := lenOf(t, e)

	// Reboot from the WAL alone: the dedup window must replay with the
	// history, so a retry that straddles a crash still dedups.
	fs.CrashRecover()
	_, c2 := bootErrFS(t, fs)
	e2, err := c2.Get("emp")
	if err != nil {
		t.Fatalf("Get after reboot: %v", err)
	}
	if got := lenOf(t, e2); got != versions {
		t.Fatalf("recovered %d versions, want %d", got, versions)
	}
	again2, err := e2.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(100)}, "ins-1")
	if err != nil {
		t.Fatalf("post-reboot replayed insert: %v", err)
	}
	if again2.ES != el.ES {
		t.Fatalf("post-reboot replay returned ES %v, want original %v", again2.ES, el.ES)
	}
	if got := lenOf(t, e2); got != versions {
		t.Fatalf("post-reboot replay grew history to %d versions, want %d", got, versions)
	}
	if err := e2.DeleteKeyed(ctx, el.ES, "ins-1"); !errors.Is(err, ErrIdemReuse) {
		t.Fatalf("post-reboot key reuse = %v, want ErrIdemReuse", err)
	}
}

// gatedFS is a wal.FS whose next Sync, once armed, announces itself and
// then blocks until the test delivers its verdict.
type gatedFS struct {
	wal.FS
	mu      sync.Mutex
	entered chan struct{}
	verdict chan error
}

type gatedFile struct {
	wal.File
	fs *gatedFS
}

func (g *gatedFS) Create(name string) (wal.File, error) {
	f, err := g.FS.Create(name)
	return &gatedFile{File: f, fs: g}, err
}

func (g *gatedFS) OpenAppend(name string, size int64) (wal.File, error) {
	f, err := g.FS.OpenAppend(name, size)
	return &gatedFile{File: f, fs: g}, err
}

// arm gates the next Sync: entered closes when it starts, and it returns
// (failing with the verdict, if non-nil) only once one is sent.
func (g *gatedFS) arm() (entered <-chan struct{}, verdict chan<- error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entered, g.verdict = make(chan struct{}), make(chan error, 1)
	return g.entered, g.verdict
}

func (f *gatedFile) Sync() error {
	f.fs.mu.Lock()
	entered, verdict := f.fs.entered, f.fs.verdict
	f.fs.entered, f.fs.verdict = nil, nil
	f.fs.mu.Unlock()
	if verdict != nil {
		close(entered)
		if err := <-verdict; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// TestDedupHitWaitsForOriginalDurability pins the acknowledgment rule for
// keyed retries under group commit: while the original request is still
// parked on its fsync, a retry that finds the key in the dedup window
// must park on the same fsync — otherwise a crash before it completes
// loses a write the retry acknowledged. If the fsync fails, the retry
// fails typed like the original.
func TestDedupHitWaitsForOriginalDurability(t *testing.T) {
	for _, tc := range []struct {
		name    string
		syncErr error
	}{
		{"sync succeeds", nil},
		{"sync fails", errors.New("injected fsync failure")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := &gatedFS{FS: wal.NewErrFS()}
			w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncGroup})
			if err != nil {
				t.Fatalf("wal.Open: %v", err)
			}
			t.Cleanup(func() { _ = w.Close() }) // a poisoned log reports its poison; nothing to check
			c := New(Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w})
			e, err := c.Create(eventSchema("emp"))
			if err != nil {
				t.Fatalf("Create: %v", err)
			}

			type ack struct {
				el  *element.Element
				err error
			}
			send := func() <-chan ack {
				done := make(chan ack, 1)
				go func() {
					el, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(100)}, "k")
					done <- ack{el, err}
				}()
				return done
			}
			entered, verdict := fs.arm()
			original := send()
			<-entered // the original is applied, remembered, and parked in its fsync
			retry := send()
			select {
			case a := <-retry:
				verdict <- nil // unpark the original so the log can close
				t.Fatalf("retry acknowledged (%v, %v) while the original's fsync was still in flight", a.el, a.err)
			case <-time.After(100 * time.Millisecond):
			}
			verdict <- tc.syncErr

			first, second := <-original, <-retry
			if tc.syncErr != nil {
				if !errors.Is(first.err, ErrReadOnly) || !errors.Is(second.err, ErrReadOnly) {
					t.Fatalf("after a failed fsync: original = %v, retry = %v; want both ErrReadOnly", first.err, second.err)
				}
				return
			}
			if first.err != nil || second.err != nil {
				t.Fatalf("original = %v, retry = %v; want both acknowledged", first.err, second.err)
			}
			if first.el.ES != second.el.ES || lenOf(t, e) != 1 {
				t.Fatalf("retry stored a second event: ES %v vs %v, %d versions", first.el.ES, second.el.ES, lenOf(t, e))
			}
		})
	}
}

func TestIdempotencyKeyLimits(t *testing.T) {
	fs := wal.NewErrFS()
	_, c := bootErrFS(t, fs)
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	long := strings.Repeat("k", maxIdemKeyLen+1)
	if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(1)}, long); err == nil {
		t.Fatal("oversized idempotency key accepted")
	}

	// A key is forgotten with its generation: after two generations' worth
	// of newer keys the first no longer dedups (the retry window has
	// passed), but never errors.
	var w dedupWindow
	for i := 0; i < 2*dedupWindowCap+10; i++ {
		w.remember(string(rune('a'+i%26))+itoa(i), dedupInsert, surrogate.None, 0)
	}
	if len(w.cur) != 10 || len(w.prev) != dedupWindowCap {
		t.Fatalf("window holds %d + %d keys, want 10 + %d", len(w.cur), len(w.prev), dedupWindowCap)
	}
	if _, ok := w.lookup("a" + itoa(0)); ok {
		t.Fatal("the oldest key outlived two generations")
	}
}

// TestCommitKeepsNoLargeKeySet: the set a mutation's keys are checked in is
// kept for the next mutation only up to maxKeptKeys keys — a map never
// shrinks — and a larger mutation still refuses a key it repeats.
func TestCommitKeepsNoLargeKeySet(t *testing.T) {
	_, c := bootErrFS(t, wal.NewErrFS())
	e, err := c.Create(eventSchema("emp"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	n := maxKeptKeys + 1
	ins, keys := make([]relation.Insertion, n), make([]string, n)
	for i := range ins {
		ins[i], keys[i] = relation.Insertion{VT: element.EventAt(1)}, fmt.Sprintf("big-%d", i)
	}
	keys[n-1] = keys[0]
	res, err := e.InsertBatch(context.Background(), ins, keys, false)
	if err != nil || res.Stored != n-1 || res.Items[n-1].Status != BatchRejected {
		t.Fatalf("a %d-key batch repeating its first key: stored %d, last item %v, %v", n, res.Stored, res.Items[n-1].Status, err)
	}
	if e.scratch.seen != nil {
		t.Fatalf("the key set of a %d-key batch was kept", n)
	}
	if _, err := e.InsertBatch(context.Background(), ins[:2], []string{"small-0", "small-1"}, false); err != nil {
		t.Fatal(err)
	}
	if e.scratch.seen == nil || len(e.scratch.seen) != 0 {
		t.Fatalf("a 2-key batch kept %v, want an empty set", e.scratch.seen)
	}
}

// TestDedupWindowGenerations pins the window's contract: the newest
// dedupWindowCap keys always dedup, with the LSN each was remembered at;
// no key is forgotten before dedupWindowCap newer ones, and none outlives
// 2·dedupWindowCap; and after the first swap no map is allocated again —
// a full, churning window pays no Delete per key and no growth.
func TestDedupWindowGenerations(t *testing.T) {
	const total = 5*dedupWindowCap + dedupWindowCap/2 + 7
	keys := make([]string, total)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d", i)
	}
	var w dedupWindow
	remember := func(i int) { w.remember(keys[i], dedupInsert, surrogate.None, uint64(i)) }
	for i := 0; i < 2*dedupWindowCap+dedupWindowCap/2; i++ {
		remember(i)
		for _, j := range []int{i, i - dedupWindowCap/2, i - dedupWindowCap + 1} { // the newest, a middle one, the oldest that must stay
			if h, ok := w.lookup(keys[max(j, 0)]); !ok || h.lsn != uint64(max(j, 0)) {
				t.Fatalf("after key %d: key %d remembered %v at lsn %d", i, j, ok, h.lsn)
			}
		}
		if j := i - 2*dedupWindowCap; j >= 0 {
			if _, ok := w.lookup(keys[j]); ok {
				t.Fatalf("key %d remembered after %d newer ones", j, i-j)
			}
		}
		// A generation ends when it is full: the keys of the one before go,
		// all at once, with the first key of the next.
		if want := i%dedupWindowCap + 1; len(w.cur) != want || (i >= dedupWindowCap && len(w.prev) != dedupWindowCap) {
			t.Fatalf("after key %d: generations of %d and %d keys", i, len(w.cur), len(w.prev))
		}
	}
	next := 2*dedupWindowCap + dedupWindowCap/2
	allocs := testing.AllocsPerRun(2, func() {
		for end := next + dedupWindowCap; next < end; next++ {
			remember(next)
		}
	})
	if allocs != 0 {
		t.Fatalf("a full window allocated %.0f times over %d keys", allocs, dedupWindowCap)
	}
}

func itoa(i int) string {
	return string(rune('0'+i/1000%10)) + string(rune('0'+i/100%10)) +
		string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

func mustByES(t *testing.T, e *Entry, es surrogate.Surrogate) *element.Element {
	t.Helper()
	var out *element.Element
	_ = e.Locked().View(func(r *relation.Relation) error {
		el, ok := r.ByES(es)
		if !ok {
			t.Fatalf("element %v not found", es)
		}
		out = el
		return nil
	})
	return out
}

func lenOf(t *testing.T, e *Entry) int {
	t.Helper()
	n := 0
	_ = e.Locked().View(func(r *relation.Relation) error {
		n = r.Len()
		return nil
	})
	return n
}

// TestVersionTooLargeIsRefusedBeforeTheLog: a version whose strings pass
// what one log frame may hold is refused, typed, while it is staged: no
// frame is written, the epoch does not move, and the relation takes the
// next insert as if nothing had been asked. The bound is the frame's
// (storage.MaxStringBytes is wal.MaxFrameBytes), so a chunk's string arena
// stays inside its 32-bit offsets.
func TestVersionTooLargeIsRefusedBeforeTheLog(t *testing.T) {
	if storage.MaxStringBytes != wal.MaxFrameBytes {
		t.Fatalf("storage.MaxStringBytes is %d, a log frame's bound %d", storage.MaxStringBytes, wal.MaxFrameBytes)
	}
	w, c := bootErrFS(t, wal.NewErrFS())
	e, err := c.Create(relation.Schema{Name: "docs", ValidTime: element.EventStamp, Granularity: chronon.Second,
		Varying: []relation.Column{{Name: "body", Type: element.KindString}}})
	if err != nil {
		t.Fatal(err)
	}
	lsn, epoch := w.LastLSN(), e.Epoch()
	big := element.String_(strings.Repeat("x", storage.MaxStringBytes+1))
	if _, err := insert(e, relation.Insertion{VT: element.EventAt(1), Varying: []element.Value{big}}); !errors.Is(err, relation.ErrVersionTooLarge) {
		t.Fatalf("insert of %d string bytes: %v", storage.MaxStringBytes+1, err)
	}
	if _, err := e.InsertBatch(context.Background(), []relation.Insertion{{VT: element.EventAt(1), Varying: []element.Value{big}}}, nil, true); !errors.Is(err, relation.ErrVersionTooLarge) {
		t.Fatalf("batch insert of %d string bytes: %v", storage.MaxStringBytes+1, err)
	}
	if w.LastLSN() != lsn || e.Epoch() != epoch {
		t.Fatalf("the refusals wrote frames up to LSN %d (was %d), epoch %d (was %d)", w.LastLSN(), lsn, e.Epoch(), epoch)
	}
	if _, err := insert(e, relation.Insertion{VT: element.EventAt(2), Varying: []element.Value{element.String_("ok")}}); err != nil {
		t.Fatal(err)
	}
}
