package catalog

// Tests for the specialization feedback loop: observed-extension
// inference licensing a live store migration (Respecialize), the
// journaled walRespecialize frame carrying the design across restarts
// and to followers, adoption revoking cleanly when later history breaks
// the observed property, and class-scheduled compaction sealing frozen
// runs on the migrated append-only organization. The invariant every
// test leans on: migration may change plans and costs but never results.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
)

// degenerateInserts stores n elements whose valid time coincides with
// the transaction time the logical clock (origin 0, step 10) will issue:
// tt = vt = 10, 20, 30, ... — the paper's degenerate class, observed
// rather than declared.
func degenerateInserts(t testing.TB, e *Entry, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if _, err := insert(e, relation.Insertion{VT: element.EventAt(chronon.Chronon(10 * i))}); err != nil {
			t.Fatalf("degenerate insert %d: %v", i, err)
		}
	}
}

// resultKey flattens a query result into a canonical, order-independent
// form so pre- and post-migration answers can be compared byte for byte.
func resultKey(res QueryResult) []string {
	keys := make([]string, len(res.Elements))
	for i, el := range res.Elements {
		keys[i] = fmt.Sprintf("%v|%v|%v|%v", el.ES, el.VT, el.TTStart, el.TTEnd)
	}
	sort.Strings(keys)
	return keys
}

func sameElements(t *testing.T, what string, a, b QueryResult) {
	t.Helper()
	ka, kb := resultKey(a), resultKey(b)
	if len(ka) != len(kb) {
		t.Fatalf("%s: %d elements before, %d after", what, len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("%s: element %d diverged:\n before %s\n after  %s", what, i, ka[i], kb[i])
		}
	}
}

func TestRespecializeInferredMigration(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const n = 48
	degenerateInserts(t, e, n)

	before := e.Physical()
	if before.Org == storage.VTOrdered {
		t.Fatalf("fresh relation already vt-ordered (org %v); inference must not change the org without a journaled migration", before.Org)
	}
	if got := before.Inferred; len(got) == 0 {
		t.Fatal("tracker inferred no classes from a degenerate extension")
	}

	ctx := context.Background()
	tsBefore, _ := e.TimesliceCtx(ctx, 250)
	rbBefore, _ := e.RollbackCtx(ctx, 250)
	curBefore, _ := e.CurrentCtx(ctx)

	rep, err := c.AdvisePass(DefaultAdvisorConfig())
	if err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	if rep.Examined != 1 || len(rep.Migrations) != 1 {
		t.Fatalf("AdvisePass examined %d, migrated %d; want 1 and 1", rep.Examined, len(rep.Migrations))
	}
	mig := rep.Migrations[0]
	if mig.From != before.Org || mig.To != storage.VTOrdered || mig.Source != storage.SourceInferred {
		t.Fatalf("migration %v -> %v (%s); want %v -> %v (%s)",
			mig.From, mig.To, mig.Source, before.Org, storage.VTOrdered, storage.SourceInferred)
	}

	after := e.Physical()
	if after.Org != storage.VTOrdered || after.Source != storage.SourceInferred {
		t.Fatalf("post-migration org %v (%s); want %v (%s)",
			after.Org, after.Source, storage.VTOrdered, storage.SourceInferred)
	}
	if after.Migrations != 1 || len(after.History) != 1 {
		t.Fatalf("migrations %d, history %d; want 1 and 1", after.Migrations, len(after.History))
	}
	hasDegenerate := false
	for _, cl := range after.Adopted {
		if cl == core.Degenerate {
			hasDegenerate = true
		}
	}
	if !hasDegenerate {
		t.Fatalf("adopted classes %v lack Degenerate", after.Adopted)
	}

	tsAfter, _ := e.TimesliceCtx(ctx, 250)
	rbAfter, _ := e.RollbackCtx(ctx, 250)
	curAfter, _ := e.CurrentCtx(ctx)
	sameElements(t, "timeslice", tsBefore, tsAfter)
	sameElements(t, "rollback", rbBefore, rbAfter)
	sameElements(t, "current", curBefore, curAfter)

	// A second pass with nothing new observed is a no-op: the advice is
	// already adopted, so no further migration and no history growth.
	rep2, err := c.AdvisePass(AdvisorConfig{}) // zero thresholds: always look
	if err != nil {
		t.Fatalf("second AdvisePass: %v", err)
	}
	if len(rep2.Migrations) != 0 {
		t.Fatalf("second pass migrated again: %+v", rep2.Migrations)
	}
	if got := e.Physical().Migrations; got != 1 {
		t.Fatalf("migrations after no-op pass = %d, want 1", got)
	}
}

func TestAdvisePassThresholdsGateReexamination(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	degenerateInserts(t, e, 8)

	cfg := AdvisorConfig{MinEpochDelta: 1 << 20, MinBytesDelta: 1 << 40}
	rep, err := c.AdvisePass(cfg)
	if err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if rep.Examined != 1 {
		t.Fatalf("first look examined %d, want 1 (never-seen relations always qualify)", rep.Examined)
	}
	rep2, err := c.AdvisePass(cfg)
	if err != nil {
		t.Fatalf("second pass: %v", err)
	}
	if rep2.Examined != 0 {
		t.Fatalf("second look examined %d, want 0 (thresholds not reached)", rep2.Examined)
	}
}

func TestAdvisePassRefusedOnFollower(t *testing.T) {
	c := New(Config{
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		Follower: true,
	})
	if err := c.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := c.AdvisePass(DefaultAdvisorConfig()); err == nil {
		t.Fatal("AdvisePass succeeded on a follower; designs must replicate from the primary")
	}
}

func TestRespecializeCompactionSealsRuns(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const n = 700 // > 2 full runs of 256
	degenerateInserts(t, e, n)

	ctx := context.Background()
	probeVT := chronon.Chronon(10 * (n / 3))
	tsBefore, _ := e.TimesliceCtx(ctx, probeVT)
	rbBefore, _ := e.RollbackCtx(ctx, probeVT)

	rep, err := c.AdvisePass(DefaultAdvisorConfig())
	if err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	if len(rep.Migrations) != 1 {
		t.Fatalf("migrations %d, want 1", len(rep.Migrations))
	}
	if rep.Sealed == 0 {
		t.Fatal("class-scheduled compaction sealed nothing on a 700-element vt-ordered relation")
	}
	phys := e.Physical()
	if phys.Compaction.Runs == 0 || phys.Compaction.Sealed == 0 {
		t.Fatalf("compaction stats empty after sealing: %+v", phys.Compaction)
	}
	if phys.Compaction.PackedBytes <= 0 {
		t.Fatalf("sealed runs report no packed bytes: %+v", phys.Compaction)
	}

	tsAfter, _ := e.TimesliceCtx(ctx, probeVT)
	rbAfter, _ := e.RollbackCtx(ctx, probeVT)
	sameElements(t, "timeslice over sealed runs", tsBefore, tsAfter)
	sameElements(t, "rollback over sealed runs", rbBefore, rbAfter)

	// Inserts after sealing land in the mutable tail and stay queryable.
	degenerateInserts(t, e, 5)
	cur, _ := e.CurrentCtx(ctx)
	if len(cur.Elements) != n+5 {
		t.Fatalf("current after post-seal inserts = %d, want %d", len(cur.Elements), n+5)
	}
}

func TestRespecializeAdoptionRevokedByViolatingInsert(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	degenerateInserts(t, e, 32)
	if _, err := c.AdvisePass(DefaultAdvisorConfig()); err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	if got := e.Physical().Org; got != storage.VTOrdered {
		t.Fatalf("pre-violation org %v, want %v", got, storage.VTOrdered)
	}

	// A retroactive event (vt far below the issued tt) breaks both the
	// degenerate and the sequential property. The adoption was inferred,
	// not declared, so the insert must be ACCEPTED and the organization
	// degraded — never the element rejected.
	el, err := insert(e, relation.Insertion{VT: element.EventAt(3)})
	if err != nil {
		t.Fatalf("violating insert rejected: %v", err)
	}
	phys := e.Physical()
	if phys.Org == storage.VTOrdered {
		t.Fatalf("org still %v after the observed order was violated", phys.Org)
	}
	cur, _ := e.CurrentCtx(context.Background())
	found := false
	for _, got := range cur.Elements {
		if got.ES == el.ES {
			found = true
		}
	}
	if !found || len(cur.Elements) != 33 {
		t.Fatalf("current = %d elements (violating present %v), want 33 and true", len(cur.Elements), found)
	}

	// Re-advising now finds the extension degenerate no more: the revoked
	// adoption stops licensing anything, and the advisor settles on a
	// general organization instead of flapping back.
	rep, err := c.AdvisePass(AdvisorConfig{})
	if err != nil {
		t.Fatalf("re-advise: %v", err)
	}
	for _, m := range rep.Migrations {
		if m.To == storage.VTOrdered {
			t.Fatalf("advisor migrated back to %v on a non-degenerate extension", m.To)
		}
	}
}

// TestOverlappingIntervalDegradesTheVTOrderedLabel is the interval half of
// the revocation above, where the violation keeps the starts in order: a
// relation on the vt-ordered log by inferred sequentiality takes a long
// interval, then a short one that starts after it and ends inside it. The
// valid-time search finds the first element reaching past a bound by its
// end, so the label must go with the ends' order — before it did, the
// search lost the long interval (a time-slice inside it answered without it,
// and so did a clamped aggregate's bounded loop).
func TestOverlappingIntervalDegradesTheVTOrderedLabel(t *testing.T) {
	c := New(cachedConfig(t.TempDir()))
	e, err := c.Create(relation.Schema{Name: "iv", ValidTime: element.IntervalStamp, Granularity: chronon.Second,
		Varying: []relation.Column{{Name: "v", Type: element.KindInt}}})
	if err != nil {
		t.Fatal(err)
	}
	span := func(lo, hi chronon.Chronon) {
		t.Helper()
		if _, err := insert(e, relation.Insertion{VT: element.SpanOf(lo, hi), Varying: []element.Value{element.Int(1)}}); err != nil {
			t.Fatalf("insert [%d, %d): %v", lo, hi, err)
		}
	}
	for i := chronon.Chronon(1); i <= 600; i++ { // tt = 10·i: sequential, ends in order
		span(10*i, 10*i+10)
	}
	if _, err := c.AdvisePass(AdvisorConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := e.Physical().Org; got != storage.VTOrdered {
		t.Fatalf("set-up left %v", got)
	}
	span(6010, 9000)
	span(6020, 6025)
	if got := e.Physical().Org; got == storage.VTOrdered {
		t.Fatal("an interval ending before its predecessor left the vt-ordered label in place")
	}
	for i := chronon.Chronon(0); i < 300; i++ {
		span(6030+10*i, 6035+10*i)
	}
	for _, at := range []chronon.Chronon{7000, 8999} {
		want := 0
		for _, el := range current(e).Elements {
			if el.ValidAt(at) {
				want++
			}
		}
		if got := timeslice(e, at); len(got.Elements) != want || want == 0 {
			t.Fatalf("timeslice at %d: %d elements, %d valid there", at, len(got.Elements), want)
		}
	}
	src := "select count(*) from iv when valid during [8990, 8999) group by window(10)"
	if got, want := mustAggSelect(t, e, src), mustDefine(t, e, src); !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("aggregate: %v, the definition %v", got.Rows, want.Rows)
	}
}

func TestRespecializeSurvivesWALReplay(t *testing.T) {
	dir := t.TempDir()
	walDir := t.TempDir()
	wlog, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cfg := testConfig(dir)
	cfg.WAL = wlog
	c := New(cfg)
	e, err := c.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	degenerateInserts(t, e, 24)
	if _, err := c.AdvisePass(DefaultAdvisorConfig()); err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	degenerateInserts(t, e, 4) // mutations after the migration frame
	want := e.Physical()
	curWant, _ := e.CurrentCtx(context.Background())
	if err := wlog.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	// Crash-restart: nothing was snapshotted, so the org must come back
	// from the walRespecialize frame alone.
	wlog2, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal reopen: %v", err)
	}
	defer wlog2.Close()
	cfg2 := testConfig(dir)
	cfg2.WAL = wlog2
	c2 := New(cfg2)
	if err := c2.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	e2, err := c2.Get("mon")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	got := e2.Physical()
	if got.Org != want.Org || got.Source != want.Source {
		t.Fatalf("replayed org %v (%s), want %v (%s)", got.Org, got.Source, want.Org, want.Source)
	}
	if got.Migrations != want.Migrations {
		t.Fatalf("replayed migrations %d, want %d", got.Migrations, want.Migrations)
	}
	if len(got.Adopted) != len(want.Adopted) {
		t.Fatalf("replayed adopted %v, want %v", got.Adopted, want.Adopted)
	}
	cur, _ := e2.CurrentCtx(context.Background())
	sameElements(t, "current across replay", curWant, cur)
}

func TestRespecializeSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	walDir := t.TempDir()
	wlog, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cfg := testConfig(dir)
	cfg.WAL = wlog
	c := New(cfg)
	e, err := c.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	degenerateInserts(t, e, 24)
	if _, err := c.AdvisePass(DefaultAdvisorConfig()); err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	want := e.Physical()
	// Snapshot persists the physical design and truncates the WAL below
	// the covered watermark — the walRespecialize frame may be gone, so
	// the design must round-trip through the snapshot codec.
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	wlog2, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal reopen: %v", err)
	}
	defer wlog2.Close()
	cfg2 := testConfig(dir)
	cfg2.WAL = wlog2
	c2 := New(cfg2)
	if err := c2.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	e2, err := c2.Get("mon")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	got := e2.Physical()
	if got.Org != want.Org || got.Source != want.Source || got.Migrations != want.Migrations {
		t.Fatalf("snapshot-loaded design org %v (%s) migrations %d, want %v (%s) %d",
			got.Org, got.Source, got.Migrations, want.Org, want.Source, want.Migrations)
	}
	if len(got.Adopted) != len(want.Adopted) {
		t.Fatalf("snapshot-loaded adopted %v, want %v", got.Adopted, want.Adopted)
	}
}

func TestFollowerAdoptsReplicatedRespecialize(t *testing.T) {
	walDir := t.TempDir()
	wlog, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer wlog.Close()
	cfg := testConfig(t.TempDir())
	cfg.WAL = wlog
	primary := New(cfg)
	e, err := primary.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	degenerateInserts(t, e, 24)
	if _, err := primary.AdvisePass(DefaultAdvisorConfig()); err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	degenerateInserts(t, e, 4)
	want := e.Physical()
	curWant, _ := e.CurrentCtx(context.Background())

	recs, _, err := wlog.IterateFrom(1, 100_000)
	if err != nil {
		t.Fatalf("IterateFrom: %v", err)
	}
	sawRespecialize := false
	for _, rec := range recs {
		if rec.Kind == walRespecialize {
			sawRespecialize = true
		}
	}
	if !sawRespecialize {
		t.Fatal("primary WAL carries no walRespecialize frame")
	}

	follower := New(Config{
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		Follower: true,
	})
	if err := follower.Open(); err != nil {
		t.Fatalf("follower Open: %v", err)
	}
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatalf("ApplyReplicated: %v", err)
	}
	fe, err := follower.Get("mon")
	if err != nil {
		t.Fatalf("follower Get: %v", err)
	}
	got := fe.Physical()
	if got.Org != want.Org || got.Source != want.Source || got.Migrations != want.Migrations {
		t.Fatalf("follower design org %v (%s) migrations %d, want %v (%s) %d",
			got.Org, got.Source, got.Migrations, want.Org, want.Source, want.Migrations)
	}
	cur, _ := fe.CurrentCtx(context.Background())
	sameElements(t, "follower current", curWant, cur)
}

// TestRespecializeConcurrentStress races live migrations and compaction
// against snapshot readers, writers, and vacuum. Run under -race; the
// assertions pin only the final count — the value is the interleavings.
func TestRespecializeConcurrentStress(t *testing.T) {
	c := New(testConfig(t.TempDir()))
	e, err := c.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const seed = 64
	degenerateInserts(t, e, seed)

	const (
		writers   = 2
		readers   = 3
		perWriter = 80
		passes    = 40
	)
	ctx := context.Background()
	var mutators, observers sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		mutators.Add(1)
		go func(w int) {
			defer mutators.Done()
			for i := 0; i < perWriter; i++ {
				// Mostly large vt stamps (order-friendly), every 16th one
				// retroactive so adoptions get revoked mid-flight too.
				vt := chronon.Chronon(100_000 + 10*(w*perWriter+i))
				if i%16 == 15 {
					vt = chronon.Chronon(1 + i)
				}
				if _, err := insert(e, relation.Insertion{VT: element.EventAt(vt)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		observers.Add(1)
		go func(r int) {
			defer observers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					if _, err := e.TimesliceCtx(ctx, chronon.Chronon(10*(i%seed+1))); err != nil {
						t.Errorf("reader %d timeslice: %v", r, err)
						return
					}
				case 1:
					if _, err := e.RollbackCtx(ctx, chronon.Chronon(10*(i%seed+1))); err != nil {
						t.Errorf("reader %d rollback: %v", r, err)
						return
					}
				default:
					if _, err := e.CurrentCtx(ctx); err != nil {
						t.Errorf("reader %d current: %v", r, err)
						return
					}
				}
				_ = e.Physical() // the lock-free probe, raced too
			}
		}(r)
	}
	mutators.Add(1)
	go func() { // the advisor, re-advising and compacting continuously
		defer mutators.Done()
		for i := 0; i < passes; i++ {
			if _, err := c.AdvisePass(AdvisorConfig{}); err != nil {
				t.Errorf("advise pass %d: %v", i, err)
				return
			}
			e.Compact()
		}
	}()
	mutators.Add(1)
	go func() { // vacuum racing the migrations
		defer mutators.Done()
		for i := 0; i < 10; i++ {
			if _, err := e.Vacuum(1); err != nil { // horizon below every tt: frees nothing
				t.Errorf("vacuum: %v", err)
				return
			}
		}
	}()

	mutators.Wait() // writers, advisor, vacuum all terminate on their own
	close(stop)     // then release the readers
	observers.Wait()

	cur, err := e.CurrentCtx(ctx)
	if err != nil {
		t.Fatalf("final current: %v", err)
	}
	if want := seed + writers*perWriter; len(cur.Elements) != want {
		t.Fatalf("final current = %d elements, want %d", len(cur.Elements), want)
	}
}

// noSeekClock hides any AdvanceTo the wrapped clock offers, modeling a
// transaction-time source that restarts at its origin after a reboot:
// replay cannot re-seed it, so the first post-restart stamp falls below
// transaction times already persisted.
type noSeekClock struct{ inner tx.Clock }

func (c noSeekClock) Next() chronon.Chronon { return c.inner.Next() }
func (c noSeekClock) Now() chronon.Chronon  { return c.inner.Now() }

// A clock that restarts behind persisted stamps, and that replay cannot
// re-seed, must still never stamp a write below the relation's last
// journaled transaction time: the element would be served, but its frame
// is one replay refuses ("tt … before …"), so the primary could not reboot
// and a follower could never catch up. The writes after the restart are
// stamped past the persisted maximum instead. The history stays in
// transaction-time order; what the first of them breaks is the adopted
// valid-time order (vt 5 behind vt 200), so the store degrades to the
// tt-ordered log, no further. The primary rebooted from its snapshot and
// log, and a follower fed the log from its first frame, then answer
// exactly what was acknowledged.
func TestRespecializeBackwardClockKeepsCommittedElements(t *testing.T) {
	ctx := context.Background()
	dir, fs := t.TempDir(), wal.NewErrFS()
	boot := func() (*Catalog, *wal.Log) {
		t.Helper()
		w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways})
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		c := New(Config{Dir: dir, WAL: w, NewClock: func() tx.Clock { return noSeekClock{tx.NewLogicalClock(0, 10)} }})
		if err := c.Open(); err != nil {
			t.Fatalf("Open: %v", err)
		}
		return c, w
	}
	c, w := boot()
	e, err := c.Create(eventSchema("mon"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const n = 20
	degenerateInserts(t, e, n)
	rep, err := c.AdvisePass(AdvisorConfig{})
	if err != nil {
		t.Fatalf("AdvisePass: %v", err)
	}
	if len(rep.Migrations) != 1 {
		t.Fatalf("migrations = %d, want 1", len(rep.Migrations))
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("wal Close: %v", err)
	}

	// Reopen: the fresh clock restarts at origin 0, so it would stamp 10, 20,
	// … — far below the persisted maximum 10n, and replay cannot move it.
	c2, _ := boot()
	e2, err := c2.Get("mon")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if org := e2.Physical().Org; org != storage.VTOrdered {
		t.Fatalf("reloaded org = %v, want the adopted %v", org, storage.VTOrdered)
	}
	el, err := insert(e2, relation.Insertion{VT: element.EventAt(chronon.Chronon(5))})
	if err != nil {
		t.Fatalf("post-restart insert refused: %v", err)
	}
	if el.TTStart <= 10*n {
		t.Fatalf("post-restart insert stamped %v, at or below the persisted maximum %v", el.TTStart, chronon.Chronon(10*n))
	}
	batch := make([]relation.Insertion, 3)
	for i := range batch {
		batch[i] = relation.Insertion{VT: element.EventAt(chronon.Chronon(300 + i))}
	}
	res, err := e2.InsertBatch(ctx, batch, []string{"b0", "b1", "b2"}, true)
	if err != nil || res.Stored != len(batch) {
		t.Fatalf("post-restart batch stored %d: %v", res.Stored, err)
	}
	if err := remove(e2, res.Items[1].Elem.ES); err != nil {
		t.Fatalf("post-restart delete: %v", err)
	}
	if org := e2.Physical().Org; org != storage.TTOrdered {
		t.Fatalf("org after an element behind the vt order = %v, want %v", org, storage.TTOrdered)
	}

	// The model: the acknowledged history, in the order it was stamped.
	var acked []*element.Element
	_ = e2.Locked().View(func(r *relation.Relation) error {
		acked = r.Versions()
		return nil
	})
	if len(acked) != n+1+len(batch) {
		t.Fatalf("%d versions after %d acknowledged inserts", len(acked), n+1+len(batch))
	}
	for i := 1; i < len(acked); i++ {
		if acked[i].TTStart <= acked[i-1].TTStart {
			t.Fatalf("version %d stamped %v after %v", i, acked[i].TTStart, acked[i-1].TTStart)
		}
	}
	model := func(keep func(*element.Element) bool) []string {
		var out QueryResult
		for _, v := range acked {
			if keep(v) {
				out.Elements = append(out.Elements, v)
			}
		}
		return resultKey(out)
	}
	cut := el.TTStart - 1 // just before the restart
	want := map[string][]string{
		"current":   model(func(v *element.Element) bool { return v.Current() }),
		"timeslice": model(func(v *element.Element) bool { return v.Current() && v.ValidAt(5) }),
		"rollback":  model(func(v *element.Element) bool { return v.PresentAt(cut) }),
	}

	// A crash, a reboot over the snapshot and the log, and a follower fed the
	// log from the start.
	c3, _ := boot()
	follower := New(Config{Follower: true, NewClock: logicalClock})
	if err := follower.ApplyReplicated(recordsOf(t, fs)); err != nil {
		t.Fatalf("follower apply: %v", err)
	}
	for route, cat := range map[string]*Catalog{"primary": c2, "rebooted primary": c3, "follower": follower} {
		e, err := cat.Get("mon")
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		got := map[string][]string{
			"current":   resultKey(current(e)),
			"timeslice": resultKey(timeslice(e, 5)),
			"rollback":  resultKey(rollback(e, cut)),
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s answers %v, the acknowledged history %v", route, got, want)
		}
		if org := e.Physical().Org; org != storage.TTOrdered {
			t.Fatalf("%s on the %v, want the %v", route, org, storage.TTOrdered)
		}
	}
}

// The same restart under a declared two-sided bound: the relation reloads
// onto the tt-ordered log with the tt-window pushdown on. The first insert
// is stamped past the persisted maximum, not where the restarted clock
// says, and the declared bound judges that stamp: an element valid at 5 —
// inside the bound of the clock's 10, far outside that of the real stamp —
// is refused, one valid just before the real stamp is taken, the store
// keeps its label and the engine its pushdown, and every valid-time answer
// equals the definition evaluated over Versions.
func TestBackwardClockUnderDeclaredBoundKeepsThePushdown(t *testing.T) {
	cfg := Config{
		Dir:      t.TempDir(),
		NewClock: func() tx.Clock { return noSeekClock{tx.NewLogicalClock(0, 10)} },
	}
	c := New(cfg)
	e, err := c.Create(eventSchema("acct"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	spec, err := core.StronglyBoundedSpec(chronon.Seconds(100), chronon.Seconds(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Declare([]constraint.Descriptor{mustDescribe(t, constraint.Event{Spec: spec}, constraint.PerRelation)}); err != nil {
		t.Fatalf("Declare: %v", err)
	}
	const n = 20
	degenerateInserts(t, e, n)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := New(cfg)
	if err := c2.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	e2, err := c2.Get("acct")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	slice := plan.Query{Kind: plan.QTimeslice, VTLo: 5, VTHi: 6}
	if leaf := e2.PlanFor(slice).Leaf().Kind; e2.Physical().Org != storage.TTOrdered || leaf != plan.TTWindowPushdown {
		t.Fatalf("reloaded on %v planning %v, want the bounded tt-ordered log", e2.Physical().Org, leaf)
	}
	// The clock says 10; the stamp is 10n+1, and vt 5 is 10n−4 behind it.
	if _, err := insert(e2, relation.Insertion{VT: element.EventAt(5)}); err == nil || !strings.Contains(err.Error(), "strongly bounded") {
		t.Fatalf("an element outside the bound of its real stamp: %v, want the declaration's refusal", err)
	}
	el, err := insert(e2, relation.Insertion{VT: element.EventAt(10*n - 50)})
	if err != nil {
		t.Fatalf("post-restart insert refused: %v", err)
	}
	// The refused insert burned 10n+1, as a refused insert burns a clock tick.
	if el.TTStart != 10*n+2 {
		t.Fatalf("post-restart insert stamped %v, want just past the persisted maximum and the refused stamp", el.TTStart)
	}
	slice = plan.Query{Kind: plan.QTimeslice, VTLo: 10*n - 50, VTHi: 10*n - 49}
	v := e2.view.Load()
	if a := v.engine.Access(); e2.Physical().Org != storage.TTOrdered || !a.HasOffsetBounds || e2.PlanFor(slice).Leaf().Kind != plan.TTWindowPushdown {
		t.Fatalf("after the insert: on %v, bounds %+v", e2.Physical().Org, a)
	}
	if ts := timeslice(e2, 10*n-50); len(ts.Elements) != 2 || (ts.Elements[0].ES != el.ES && ts.Elements[1].ES != el.ES) {
		t.Fatalf("timeslice at the acknowledged element's vt = %v", resultKey(ts))
	}
	var versions []*element.Element
	_ = e2.Locked().View(func(r *relation.Relation) error {
		versions = r.Versions()
		return nil
	})
	for _, span := range [][2]chronon.Chronon{{5, 6}, {0, 11}, {10, 11}, {7, 8}, {0, 1 << 20}, {150, 190}, {200, 201}} {
		var want []string
		for _, el := range versions {
			if c, _ := el.VT.Event(); el.Current() && span[0] <= c && c < span[1] {
				want = append(want, fmt.Sprint(el.ES))
			}
		}
		var got []string
		for _, el := range v.engine.VTRange(span[0], span[1]).Elements {
			got = append(got, fmt.Sprint(el.ES))
		}
		sort.Strings(want)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("valid time [%v, %v): %v, brute force over Versions: %v", span[0], span[1], got, want)
		}
	}
}
