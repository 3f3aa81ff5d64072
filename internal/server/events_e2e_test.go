package server_test

// The engine's decisions as rows of _sys_events, end to end:
//
// Reboot and replication — a migration's row survives a reboot from a
// snapshot that covers the migration's own frame, and a caught-up follower
// holds the primary's rows under the primary's Merkle root and reports the
// primary's history.
//
// The "why" query — AS OF a transaction time after the migration its row
// answers; AS OF one before it, nothing.
//
// Segment repair — a bit-flipped WAL segment quarantines and repairs every
// relation with history in it, one row per relation and step.
//
// Soundness — every class the tracker infers for _sys_events holds on its
// extension; under a poisoned WAL a decision still lands in the ring and
// the row it could not write is counted.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
)

// migrateDegenerate creates rel with a degenerate extension — vt equals the
// tt the logical clock issues — and runs the advisor pass that migrates it.
func migrateDegenerate(t *testing.T, ctx context.Context, cli *client.Client, cat *catalog.Catalog, rel string) {
	t.Helper()
	if _, err := cli.Create(ctx, namedSchema(rel)); err != nil {
		t.Fatalf("create %s: %v", rel, err)
	}
	for j := 0; j < 32; j++ {
		if _, err := cli.Insert(ctx, rel, insertReq(int64(10*(j+1)), "sensor", int64(j))); err != nil {
			t.Fatalf("insert %s %d: %v", rel, j, err)
		}
	}
	rep, err := cat.AdvisePass(catalog.DefaultAdvisorConfig())
	if err != nil || len(rep.Migrations) != 1 {
		t.Fatalf("advisor pass over %s: %+v, %v; want one migration", rel, rep, err)
	}
}

func selectOK(t *testing.T, ctx context.Context, cli *client.Client, stmt string) client.SelectResponse {
	t.Helper()
	res, err := cli.Select(ctx, stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

func TestIntegrityE2EDecisionsSurviveRebootAndReplicate(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p := bootIntegPrimary(t, dir, "")
	cli := client.New(p.base)
	migrateDegenerate(t, ctx, cli, p.cat, "mon")

	fol := bootFollower(t, t.TempDir(), p.base)
	defer fol.stop()
	folCli := client.New(fol.url)
	const all = "SELECT * FROM _sys_events"
	rows := selectOK(t, ctx, cli, all).Rows
	if len(rows) != 1 {
		t.Fatalf("_sys_events holds %d rows after one migration, want 1", len(rows))
	}
	waitUntil(t, "follower replicated the decision rows", func() bool {
		got, err := folCli.Select(ctx, all)
		return err == nil && reflect.DeepEqual(got.Rows, rows)
	})
	pIg, err := cli.Integrity(ctx, "_sys_events")
	if err != nil {
		t.Fatalf("primary integrity: %v", err)
	}
	fIg, err := folCli.Integrity(ctx, "_sys_events")
	if err != nil {
		t.Fatalf("follower integrity: %v", err)
	}
	if !pIg.Tracked || pIg.Size != fIg.Size || !bytes.Equal(pIg.Root, fIg.Root) {
		t.Fatalf("_sys_events Merkle head: primary %d %x, follower %d %x", pIg.Size, pIg.Root, fIg.Size, fIg.Root)
	}
	want, err := cli.Physical(ctx, "mon")
	if err != nil {
		t.Fatalf("primary physical: %v", err)
	}
	if want.Migrations != 1 || len(want.History) != 1 || want.History[0].To != storage.VTOrdered.String() {
		t.Fatalf("primary: migrations %d, history %+v; want one migration to the vt-ordered log", want.Migrations, want.History)
	}
	got, err := folCli.Physical(ctx, "mon")
	if err != nil {
		t.Fatalf("follower physical: %v", err)
	}
	if got.Migrations != want.Migrations || !reflect.DeepEqual(got.History, want.History) {
		t.Fatalf("follower: migrations %d, history %+v; want the primary's %d, %+v", got.Migrations, got.History, want.Migrations, want.History)
	}

	// The snapshot covers the respecialize frame, so the reboot skips it:
	// the history the rebooted primary reports is the rows'.
	if _, err := cli.Snapshot(ctx); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	p.stop()
	p = bootIntegPrimary(t, dir, p.addr)
	defer p.stop()
	after, err := cli.Physical(ctx, "mon")
	if err != nil {
		t.Fatalf("physical after reboot: %v", err)
	}
	if after.Migrations != 1 || !reflect.DeepEqual(after.History, want.History) {
		t.Fatalf("after reboot: migrations %d, history %+v; want 1 and %+v", after.Migrations, after.History, want.History)
	}
	if got := selectOK(t, ctx, cli, all).Rows; !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows after reboot %v, want %v", got, rows)
	}
}

func TestIntegrityE2EWhyQueryAsOf(t *testing.T) {
	ctx := context.Background()
	p := bootIntegPrimary(t, t.TempDir(), "")
	defer p.stop()
	cli := client.New(p.base)
	migrateDegenerate(t, ctx, cli, p.cat, "emp")

	res := selectOK(t, ctx, cli, "SELECT tt_start FROM _sys_events WHERE relation = 'emp'")
	if len(res.Rows) != 1 {
		t.Fatalf("emp has %d rows, want its one migration", len(res.Rows))
	}
	tt := res.Rows[0][0].Time
	why := func(at int64) client.SelectResponse {
		return selectOK(t, ctx, cli, fmt.Sprintf("SELECT * FROM _sys_events AS OF %d WHERE relation = 'emp'", at))
	}
	after := why(tt + 1)
	if len(after.Rows) != 1 {
		t.Fatalf("AS OF %d: %d rows, want the migration", tt+1, len(after.Rows))
	}
	row := map[string]string{}
	for i, col := range after.Columns {
		row[col] = after.Rows[0][i].Str
	}
	if row["kind"] != "migrate" || row["to"] != storage.VTOrdered.String() || row["source"] != storage.SourceInferred {
		t.Fatalf("AS OF %d: row %v, want the inferred migration to the vt-ordered log", tt+1, row)
	}
	if before := why(tt - 1); len(before.Rows) != 0 {
		t.Fatalf("AS OF %d, before the migration: %d rows, want none", tt-1, len(before.Rows))
	}
}

func TestIntegrityE2ESysPrefixIsReserved(t *testing.T) {
	ctx := context.Background()
	p := bootIntegPrimary(t, t.TempDir(), "")
	defer p.stop()
	cli := client.New(p.base)
	for _, name := range []string{"_sys_events", "_sysmine"} {
		_, err := cli.Create(ctx, namedSchema(name))
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_request" {
			t.Fatalf("create %s: %v, want a typed bad_request", name, err)
		}
	}
	if got, err := cli.List(ctx); err != nil || len(got) != 0 {
		t.Fatalf("relations after refused creates: %v, %v; want none", got, err)
	}
}

// TestIntegrityE2EClientsCannotWriteDecisions: no client can forge or hide
// a decision row. An insert, a delete, a modify, a batch, a CSV ingest and
// a declaration aimed at _sys_events each answer 400 bad_request and leave
// its rows and its Merkle head as they were; the engine's own next
// decision still writes its row.
func TestIntegrityE2EClientsCannotWriteDecisions(t *testing.T) {
	ctx := context.Background()
	p := bootIntegPrimary(t, t.TempDir(), "")
	defer p.stop()
	cli := client.New(p.base)
	migrateDegenerate(t, ctx, cli, p.cat, "mon")

	const all, sys = "SELECT * FROM _sys_events", "_sys_events"
	rows := selectOK(t, ctx, cli, all).Rows
	es := selectOK(t, ctx, cli, "SELECT es FROM _sys_events").Rows
	if len(rows) != 1 || len(es) != 1 {
		t.Fatalf("_sys_events holds %d rows after one migration, want 1", len(rows))
	}
	row := es[0][0].Int
	head, err := cli.Integrity(ctx, sys)
	if err != nil || !head.Tracked {
		t.Fatalf("integrity of %s: %+v, %v", sys, head, err)
	}
	forged := client.InsertRequest{VT: client.EventAt(5),
		Invariant: []client.Value{client.String("mon"), client.String("migrate")},
		Varying:   []client.Value{client.Null(), client.Null(), client.Null(), client.Int(1), client.Null(), client.Null(), client.Null(), client.Null()}}
	descriptor := mustDescriptor(t, constraint.InterEvent{Spec: core.NonDecreasingEventsSpec()})
	for what, write := range map[string]func() error{
		"insert": func() error { _, err := cli.Insert(ctx, sys, forged); return err },
		"delete": func() error { return cli.Delete(ctx, sys, uint64(row)) },
		"modify": func() error {
			_, err := cli.Modify(ctx, sys, uint64(row), client.EventAt(5), forged.Varying)
			return err
		},
		"batch": func() error { _, err := cli.InsertBatch(ctx, sys, []client.InsertRequest{forged}, true); return err },
		"csv": func() error {
			_, err := cli.IngestCSV(ctx, sys, strings.NewReader("vt,relation,kind,artifact_kind,artifact,detail,epoch,from,to,source,reasons\n5,mon,migrate,a,b,c,1,d,e,f,g\n"))
			return err
		},
		"declare": func() error { _, err := cli.Declare(ctx, sys, descriptor); return err },
	} {
		var apiErr *client.APIError
		if err := write(); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_request" {
			t.Errorf("%s into %s: %v, want a typed bad_request", what, sys, err)
		}
	}
	if got := selectOK(t, ctx, cli, all).Rows; !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows after refused writes %v, want %v", got, rows)
	}
	if after, err := cli.Integrity(ctx, sys); err != nil || after.Size != head.Size || !bytes.Equal(after.Root, head.Root) {
		t.Fatalf("Merkle head after refused writes: %d %x (%v), want %d %x", after.Size, after.Root, err, head.Size, head.Root)
	}

	migrateDegenerate(t, ctx, cli, p.cat, "mon2")
	if got := selectOK(t, ctx, cli, all).Rows; len(got) != 2 {
		t.Fatalf("_sys_events holds %d rows after a second migration, want 2", len(got))
	}
}

func TestIntegrityE2ESegmentRepairWritesARowPerRelation(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncGroup, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer w.Close()
	cat := catalog.New(catalog.Config{
		Dir:      filepath.Join(dir, "data"),
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		WAL:      w,
	})
	if err := cat.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	hs := &http.Server{Handler: server.New(server.Config{Catalog: cat}).Handler()}
	ln := listenAt(t, "")
	go hs.Serve(ln)
	defer hs.Close()
	cli := client.New("http://" + ln.Addr().String())

	for _, rel := range []string{"emp", "dept"} {
		if _, err := cli.Create(ctx, namedSchema(rel)); err != nil {
			t.Fatalf("create %s: %v", rel, err)
		}
	}
	for i := 0; i < 10; i++ {
		for _, rel := range []string{"emp", "dept"} {
			if _, err := cli.Insert(ctx, rel, insertReq(int64(1000+i), fmt.Sprintf("%s%d", rel, i), int64(i))); err != nil {
				t.Fatalf("insert %s %d: %v", rel, i, err)
			}
		}
	}
	victim := w.Segments()[0]
	rels := w.SegmentRelations(victim.Name)
	if !victim.Sealed || len(rels) != 2 {
		t.Fatalf("oldest segment %+v carries %v; the test needs a sealed one with both relations", victim, rels)
	}
	segPath := filepath.Join(dir, "wal", victim.Name)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatalf("corrupt segment: %v", err)
	}

	vr, err := cli.Verify(ctx, "emp")
	if err != nil || vr.Repaired == 0 {
		t.Fatalf("verify = %+v, %v; want the segment detected and repaired", vr, err)
	}
	for _, rel := range rels {
		res := selectOK(t, ctx, cli, fmt.Sprintf("SELECT kind, artifact FROM _sys_events WHERE relation = '%s'", rel))
		var kinds []string
		for _, row := range res.Rows {
			if row[1].Str != victim.Name {
				t.Fatalf("%s: row %v names artifact %q, want %q", rel, row, row[1].Str, victim.Name)
			}
			kinds = append(kinds, row[0].Str)
		}
		if want := []string{"quarantine", "repair"}; !reflect.DeepEqual(kinds, want) {
			t.Fatalf("%s: rows %v, want %v", rel, kinds, want)
		}
	}
}

func TestIntegrityE2EDecisionRowsAreSound(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewErrFS()
	w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer w.Close()
	dataDir := t.TempDir()
	cat := catalog.New(catalog.Config{
		Dir:      dataDir,
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		WAL:      w,
	})
	if err := cat.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	hs := &http.Server{Handler: server.New(server.Config{Catalog: cat}).Handler()}
	ln := listenAt(t, "")
	go hs.Serve(ln)
	defer hs.Close()
	cli := client.New("http://" + ln.Addr().String())

	// The scripted run: two migrations, then one scrub repair of a rotted
	// snapshot shard.
	migrateDegenerate(t, ctx, cli, cat, "mon")
	migrateDegenerate(t, ctx, cli, cat, "probe")
	if _, err := cli.Snapshot(ctx); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	shard := filepath.Join(dataDir, "mon.tsbl")
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatalf("read shard: %v", err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatalf("corrupt shard: %v", err)
	}
	if _, failed, err := cat.NewScrubber(0).RunOnce(ctx); err != nil || failed != 1 {
		t.Fatalf("scrub: %d failed, %v; want the one rotted shard", failed, err)
	}

	// Each decision is one row.
	count := map[string]int{}
	for _, row := range selectOK(t, ctx, cli, "SELECT relation, kind FROM _sys_events").Rows {
		count[row[0].Str+" "+row[1].Str]++
	}
	want := map[string]int{"mon migrate": 1, "probe migrate": 1, "mon detect": 1, "mon quarantine": 1, "mon repair": 1}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("rows %v, want %v", count, want)
	}

	// What the tracker infers of the rows, the definitions confirm.
	e, err := cat.Get("_sys_events")
	if err != nil {
		t.Fatalf("get _sys_events: %v", err)
	}
	inferred := e.Physical().Inferred
	if len(inferred) == 0 {
		t.Fatal("the tracker inferred no class of _sys_events; the check would be vacuous")
	}
	rep, err := e.Classify()
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	for _, c := range inferred {
		if !rep.Has(c) {
			t.Errorf("the tracker reports %v for _sys_events; its extension does not satisfy it (%v)", c, rep.Classes())
		}
	}

	// Poison the WAL: the next decision still reaches the ring, and the row
	// it could not write is counted.
	fs.FailAt(1, wal.FaultCrash)
	if _, err := cli.Insert(ctx, "mon", insertReq(9999, "lost", 1)); err == nil {
		t.Fatal("insert through a crashed WAL succeeded")
	}
	cat.HandleCorrupt(integrity.Artifact{Kind: "runs", Name: "probe", Rel: "probe"}, errors.New("injected finding"))
	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	ig := m.Integrity
	if ig == nil || ig.EventsUnrecorded == 0 {
		t.Fatalf("metrics integrity section %+v: no unwritten row counted", ig)
	}
	found := false
	for _, ev := range ig.Events {
		found = found || ev.Kind == "detect" && ev.Rel == "probe" && ev.Detail == "injected finding"
	}
	if !found {
		t.Fatalf("the ring lacks the detection made under the poisoned WAL: %+v", ig.Events)
	}
}
