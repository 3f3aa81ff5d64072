package catalog

// A batch under one idempotency key: its frame (kind 11), its one window
// entry, the reach that entry gives a retry, the refusal of a key reused
// for another request, and the bound on what the window pins.

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/wal"
)

// windowAnswer is what e's window answers a replay of the batch one with,
// computed as commit computes it but writing nothing: the route by which a
// follower, which refuses writes, can still be asked.
func windowAnswer(e *Entry, one oneKey) ([]BatchItemResult, error) {
	items := make([]BatchItemResult, one.n)
	var err error
	_ = e.locked.View(func(r *relation.Relation) error {
		hit, ok := e.dedup.lookup(one.key)
		if !ok {
			err = fmt.Errorf("the window forgot %q", one.key)
			return nil
		}
		err = e.dedup.answerBatch(r, one, hit, items)
		return nil
	})
	return items, err
}

// itemsKey renders a batch answer for comparison across catalogs.
func itemsKey(items []BatchItemResult) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Status.String() + " " + it.Err
		if it.Elem != nil {
			out[i] += fmt.Sprintf(" %v|%v|%v|%v", it.Elem.ES, it.Elem.OS, it.Elem.VT, it.Elem.TTStart)
		}
	}
	return out
}

// eventBatch is n event insertions from vt on; every rejectEvery-th one
// (when rejectEvery > 0) carries a value the schema has no column for.
func eventBatch(vt, n, rejectEvery int) []relation.Insertion {
	ins := make([]relation.Insertion, n)
	for i := range ins {
		ins[i] = relation.Insertion{VT: element.EventAt(chronon.Chronon(vt + i))}
		if rejectEvery > 0 && i%rejectEvery == rejectEvery-1 {
			ins[i].Varying = []element.Value{element.Int(int64(i))}
		}
	}
	return ins
}

// TestBatchKeyReachesPastFortyBatches: a 256-element batch under one key,
// then 40 more batches to the same relation, then the batch again under
// its key — every unit comes back deduped with its original element and
// nothing is stored twice: live, after a reboot from the log, and on a
// follower fed the same frames. Under per-element keys the window held 16
// such batches.
func TestBatchKeyReachesPastFortyBatches(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewErrFS()
	_, c := bootErrFS(t, fs)
	e, err := c.Create(eventSchema("ev"))
	if err != nil {
		t.Fatal(err)
	}
	k := oneKey{"retry-after-forty", 256, 0x5eed}
	first, err := e.InsertBatchKeyed(ctx, eventBatch(1000, 256, 0), k.key, k.digest, true)
	if err != nil || first.Stored != 256 {
		t.Fatalf("first batch: stored %d, %v", first.Stored, err)
	}
	for b := 0; b < 40; b++ {
		if res, err := e.InsertBatchKeyed(ctx, eventBatch(2000+256*b, 256, 0), fmt.Sprintf("later-%d", b), uint32(b), false); err != nil || res.Stored != 256 {
			t.Fatalf("later batch %d: stored %d, %v", b, res.Stored, err)
		}
	}
	want := itemsKey(first.Items)
	for i := range want {
		want[i] = "deduped" + want[i][len("stored"):]
	}
	versions := 41 * 256

	replay := func(route string, e *Entry) {
		t.Helper()
		res, err := e.InsertBatchKeyed(ctx, eventBatch(1000, 256, 0), k.key, k.digest, true)
		if err != nil || res.Stored != 0 || res.Deduped != 256 {
			t.Fatalf("%s: replay stored %d, deduped %d, %v", route, res.Stored, res.Deduped, err)
		}
		if got := itemsKey(res.Items); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: replay answered\n %v\nwant\n %v", route, got[:3], want[:3])
		}
		if got := lenOf(t, e); got != versions {
			t.Fatalf("%s: %d versions after the replay, want %d", route, got, versions)
		}
	}
	replay("live", e)

	recs := recordsOf(t, fs)
	_, booted := bootErrFS(t, fs)
	eb, err := booted.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	follower := New(Config{Follower: true, NewClock: logicalClock})
	if err := follower.ApplyReplicated(recs); err != nil {
		t.Fatal(err)
	}
	ef, err := follower.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	items, err := windowAnswer(ef, k)
	if err != nil || !reflect.DeepEqual(itemsKey(items), want) {
		t.Fatalf("follower: the window answers %v, %v", itemsKey(items)[:3], err)
	}
	if got := lenOf(t, ef); got != versions {
		t.Fatalf("follower holds %d versions, want %d", got, versions)
	}
	replay("boot", eb)
}

// TestBatchKeyReuseIsRefused: under a key the window remembers for a
// batch, a prefix of that batch, the batch with another body digest, and a
// single operation are refused with ErrIdemReuse and store nothing; so is
// a batch under a key first used for a single insert. A batch stored in
// part replays as the same parts, live and after a reboot: its stored
// units deduped, every other rejected with one fixed cause.
func TestBatchKeyReuseIsRefused(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewErrFS()
	w, c := bootErrFS(t, fs)
	e, err := c.Create(eventSchema("ev"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.InsertBatchKeyed(ctx, eventBatch(100, 12, 4), "part", 7, false)
	if err != nil || res.Stored != 9 || res.Rejected != 3 {
		t.Fatalf("a batch with three rejections: %d stored, %d rejected, %v", res.Stored, res.Rejected, err)
	}
	if _, err := insert(e, relation.Insertion{VT: element.EventAt(500)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(501)}, "single"); err != nil {
		t.Fatal(err)
	}
	versions, frames := lenOf(t, e), w.Stats().Appended

	for what, try := range map[string]func() (BatchResult, error){
		"a prefix":     func() (BatchResult, error) { return e.InsertBatchKeyed(ctx, eventBatch(100, 9, 4), "part", 7, false) },
		"another body": func() (BatchResult, error) { return e.InsertBatchKeyed(ctx, eventBatch(100, 12, 4), "part", 8, false) },
		"a single key": func() (BatchResult, error) {
			return e.InsertBatchKeyed(ctx, eventBatch(100, 12, 4), "single", 7, false)
		},
		"an atomic prefix": func() (BatchResult, error) { return e.InsertBatchKeyed(ctx, eventBatch(100, 1, 0), "part", 7, true) },
	} {
		if res, err := try(); !errors.Is(err, ErrIdemReuse) || res.Items != nil {
			t.Errorf("%s under a remembered key: %+v, %v; want ErrIdemReuse", what, res, err)
		}
	}
	if _, err := e.InsertKeyed(ctx, relation.Insertion{VT: element.EventAt(502)}, "part"); !errors.Is(err, ErrIdemReuse) {
		t.Errorf("a single insert under a batch's key: %v, want ErrIdemReuse", err)
	}
	if err := e.DeleteKeyed(ctx, res.Items[0].Elem.ES, "part"); !errors.Is(err, ErrIdemReuse) {
		t.Errorf("a delete under a batch's key: %v, want ErrIdemReuse", err)
	}
	if got, n := lenOf(t, e), w.Stats().Appended; got != versions || n != frames {
		t.Fatalf("the refusals stored %d versions and %d frames", got-versions, n-frames)
	}

	want := itemsKey(res.Items)
	for i, it := range res.Items {
		if it.Status == BatchStored {
			want[i] = "deduped" + want[i][len("stored"):]
		} else {
			want[i] = "rejected " + notStoredCause
		}
	}
	again, err := e.InsertBatchKeyed(ctx, eventBatch(100, 12, 4), "part", 7, false)
	if err != nil || !reflect.DeepEqual(itemsKey(again.Items), want) || again.Deduped != 9 || again.Rejected != 3 {
		t.Fatalf("live replay of a partial batch: %v, %v", itemsKey(again.Items), err)
	}
	_, booted := bootErrFS(t, fs)
	eb, err := booted.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	again, err = eb.InsertBatchKeyed(ctx, eventBatch(100, 12, 4), "part", 7, false)
	if err != nil || !reflect.DeepEqual(itemsKey(again.Items), want) {
		t.Fatalf("replay of a partial batch after a reboot: %v, %v", itemsKey(again.Items), err)
	}
}

// TestOneKeyFrameBytes pins the kind-11 frame byte for byte: a batch of
// four under key "bk" with digest 0xdeadbeef that stored units 0 and 2.
// The stored indexes are written only because not all four were stored;
// the same batch having stored everything writes none.
func TestOneKeyFrameBytes(t *testing.T) {
	el := func(es, vt int64) relation.LogRecord {
		return relation.LogRecord{Op: relation.OpInsert, TT: 10, Elem: &element.Element{
			ES: surrogate.Surrogate(es), OS: surrogate.Surrogate(es), VT: element.EventAt(chronon.Chronon(vt)), TTStart: 10, TTEnd: chronon.Forever}}
	}
	m := mutation{kind: walInsertBatchOneKey, oneKey: oneKey{"bk", 4, 0xdeadbeef}, stored: []uint32{0, 2},
		recs: []relation.LogRecord{el(1, 5), el(2, 9)}}
	const (
		header = "0200626b" + // u16 keyLen | "bk"
			"04000000" + "efbeadde" + "02000000" // u32 n | u32 digest | u32 stored
		indexes = "00000000" + "02000000" // the stored units, as stored < n
		units   = "30000000" +            // u32 len | the insert of element 1 at vt 5 (backlog.AppendRecord)
			"000a00000000000000010000000000000001000000000000000005000000000000000500000000000000000000000000" +
			"30000000" + // u32 len | the insert of element 2 at vt 9
			"000a00000000000000020000000000000002000000000000000009000000000000000900000000000000000000000000"
	)
	payload, err := m.encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(payload); got != header+indexes+units {
		t.Fatalf("kind-11 frame\n got  %s\n want %s", got, header+indexes+units)
	}
	got, err := decodeMutation(walInsertBatchOneKey, payload)
	if err != nil || got.oneKey != m.oneKey || !reflect.DeepEqual(got.stored, m.stored) || len(got.recs) != 2 || got.keys != nil {
		t.Fatalf("decoded %+v, %v", got, err)
	}
	for i, rec := range got.recs {
		if want := m.recs[i]; rec.Op != want.Op || rec.TT != want.TT || rec.Elem.ES != want.Elem.ES || rec.Elem.VT != want.Elem.VT {
			t.Fatalf("unit %d decoded as %+v, want %+v", i, rec, want)
		}
	}
	m.oneKey.n, m.stored = 2, nil
	whole := strings.Replace(header, "04000000", "02000000", 1) + units
	if p, err := m.encode(nil); err != nil || hex.EncodeToString(p) != whole {
		t.Fatalf("the batch having stored everything:\n got  %x\n want %s", p, whole)
	}
}

// TestDedupWindowElementBudget: a generation closes at dedupWindowCap
// entries or when its batch entries pin dedupWindowElems elements,
// whichever comes first, so the window never pins more than
// 2·dedupWindowElems elements through its batches — filled with the
// largest batches a 1 MiB body carries, or with batches of 256, of which
// it still remembers at least the last 256. A batch larger than the whole
// budget fills a generation alone. A single operation's entry is no larger
// for the batch entries beside it.
func TestDedupWindowElementBudget(t *testing.T) {
	if size := unsafe.Sizeof(dedupHit{}); size != 24 {
		t.Fatalf("a window entry is %d bytes, want 24", size)
	}
	recs := func(n int) []relation.LogRecord {
		out := make([]relation.LogRecord, n)
		for i := range out {
			out[i] = relation.LogRecord{Op: relation.OpInsert, Elem: &element.Element{ES: 1}}
		}
		return out
	}
	pinned := func(w *dedupWindow) int { return len(w.curB.es) + len(w.prevB.es) }

	// The largest batches a 1 MiB body carries: ≈ 55,000 elements of
	// `{"vt":{"event":0}}`.
	var w dedupWindow
	big := recs(55_000)
	for i := 0; i < 6; i++ {
		w.rememberBatch(&mutation{oneKey: oneKey{fmt.Sprintf("big-%d", i), uint32(len(big)), 0}, recs: big}, uint64(i))
		if pinned(&w) > 2*dedupWindowElems || len(w.curB.es) > dedupWindowElems {
			t.Fatalf("after %d batches of %d the window pins %d elements (%d in the current generation)", i+1, len(big), pinned(&w), len(w.curB.es))
		}
		if i > 0 {
			if _, ok := w.lookup(fmt.Sprintf("big-%d", i-1)); !ok {
				t.Fatalf("batch %d forgotten by the next", i-1)
			}
		}
	}

	// Batches of 256: the window reaches at least 256 of them back, and
	// single keys between them count as entries, not elements.
	w = dedupWindow{}
	small := recs(256)
	for i := 0; i < 2000; i++ {
		w.rememberBatch(&mutation{oneKey: oneKey{fmt.Sprintf("b-%d", i), 256, 0}, recs: small}, uint64(i))
		w.remember(fmt.Sprintf("s-%d", i), dedupInsert, surrogate.None, uint64(i))
		if pinned(&w) > 2*dedupWindowElems || len(w.cur) > dedupWindowCap || len(w.prev) > dedupWindowCap {
			t.Fatalf("after %d batches the window holds %d + %d entries and pins %d elements", i+1, len(w.cur), len(w.prev), pinned(&w))
		}
		if j := i - dedupWindowElems/256 + 1; j >= 0 {
			if _, ok := w.lookup(fmt.Sprintf("b-%d", j)); !ok {
				t.Fatalf("batch %d forgotten after %d newer ones", j, i-j)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		w.rememberBatch(&mutation{oneKey: oneKey{"again", 256, 0}, recs: small}, 0)
	}); allocs != 0 {
		t.Fatalf("a churning window allocated %.0f times per batch", allocs)
	}

	// A batch larger than the budget stands alone in its generation.
	huge := recs(dedupWindowElems + 1)
	w.rememberBatch(&mutation{oneKey: oneKey{"huge", uint32(len(huge)), 0}, recs: huge}, 1)
	if len(w.curB.entries) != 1 || len(w.curB.es) != len(huge) {
		t.Fatalf("a batch over the budget shares its generation: %d entries, %d elements", len(w.curB.entries), len(w.curB.es))
	}
	w.rememberBatch(&mutation{oneKey: oneKey{"after", 256, 0}, recs: small}, 2)
	if len(w.curB.entries) != 1 || len(w.prevB.es) != len(huge) {
		t.Fatalf("the batch after one over the budget joined it: %d entries", len(w.curB.entries))
	}
}
