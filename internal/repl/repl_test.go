package repl_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

func openLog(t *testing.T) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Sync: wal.SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestStreamerTailServesDurablePrefix(t *testing.T) {
	l := openLog(t)
	s := repl.NewStreamer(l)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(3, "emp", []byte{byte(i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	resp, err := s.Tail(context.Background(), 1, 100, 0)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if len(resp.Frames) != 3 || resp.DurableLSN != 3 {
		t.Fatalf("tail = %d frames durable %d, want 3/3", len(resp.Frames), resp.DurableLSN)
	}
	for i, fr := range resp.Frames {
		if fr.LSN != uint64(i+1) || fr.Rel != "emp" || fr.Payload[0] != byte(i) {
			t.Fatalf("frame %d = %+v", i, fr)
		}
	}
	if st := s.Stats(); st.TailRequests != 1 || st.FramesShipped != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStreamerTailLongPollsUntilDurable(t *testing.T) {
	l := openLog(t)
	s := repl.NewStreamer(l)
	go func() {
		time.Sleep(30 * time.Millisecond)
		l.Append(3, "emp", []byte("late"))
	}()
	start := time.Now()
	resp, err := s.Tail(context.Background(), 1, 100, 2*time.Second)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if len(resp.Frames) != 1 {
		t.Fatalf("long poll returned %d frames, want the 1 appended mid-wait", len(resp.Frames))
	}
	if time.Since(start) >= 2*time.Second {
		t.Fatal("long poll waited out the full window despite a new durable record")
	}
}

func TestStreamerTailTruncated(t *testing.T) {
	// Small segments: force rolls, then truncate the oldest away.
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Sync: wal.SyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	s := repl.NewStreamer(l)
	for i := 0; i < 40; i++ {
		if _, err := l.Append(3, "emp", []byte("payload-payload")); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if _, err := l.TruncateBelow(l.DurableLSN()); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	_, err = s.Tail(context.Background(), 1, 100, 0)
	if !repl.IsTruncated(err) {
		t.Fatalf("tail from 1 after truncation = %v, want truncated", err)
	}
}

// tailServer is a hand-rolled primary: it serves scripted tail replies
// so the follower loop can be driven through catch-up and truncation
// without a full server stack. Once the script runs out it answers
// empty caught-up batches at defaultDurable.
type tailServer struct {
	mu             sync.Mutex
	batches        []tailReply
	defaultDurable uint64
	calls          atomic.Int64
}

type tailReply struct {
	status int
	body   any
}

func (ts *tailServer) push(status int, body any) {
	ts.mu.Lock()
	ts.batches = append(ts.batches, tailReply{status, body})
	ts.mu.Unlock()
}

func (ts *tailServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ts.calls.Add(1)
	ts.mu.Lock()
	var rep tailReply
	if len(ts.batches) > 0 {
		rep = ts.batches[0]
		ts.batches = ts.batches[1:]
	} else {
		rep = tailReply{http.StatusOK, wire.ReplTailResponse{DurableLSN: ts.defaultDurable}}
	}
	ts.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rep.status)
	json.NewEncoder(w).Encode(rep.body)
}

func followerCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New(catalog.Config{
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		Follower: true,
	})
	if err := c.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	return c
}

// primaryFrames builds a real WAL-backed primary catalog, applies muts to
// it, and returns the shipped wire frames plus the source catalog.
func primaryFrames(t *testing.T, muts func(c *catalog.Catalog)) ([]wire.ReplFrame, *catalog.Catalog) {
	t.Helper()
	l := openLog(t)
	c := catalog.New(catalog.Config{
		NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) },
		WAL:      l,
	})
	if err := c.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	muts(c)
	recs, durable, err := l.IterateFrom(1, 10_000)
	if err != nil {
		t.Fatalf("iterate: %v", err)
	}
	if uint64(len(recs)) == 0 || recs[len(recs)-1].LSN != durable {
		t.Fatalf("primary shipped %d records, durable %d", len(recs), durable)
	}
	frames := make([]wire.ReplFrame, len(recs))
	for i, rec := range recs {
		frames[i] = wire.ReplFrame{LSN: rec.LSN, Kind: uint8(rec.Kind), Rel: rec.Rel, Payload: rec.Payload}
	}
	return frames, c
}

func eventSchema(name string) relation.Schema {
	return relation.Schema{
		Name:        name,
		ValidTime:   element.EventStamp,
		Granularity: chronon.Second,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFollowerAppliesAndReportsStaleness(t *testing.T) {
	const idemKey = "repl-key-1"
	frames, pcat := primaryFrames(t, func(c *catalog.Catalog) {
		e, err := c.Create(eventSchema("emp"))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 0; i < 3; i++ {
			if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(100 + i))}, ""); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(500)}, idemKey); err != nil {
			t.Fatalf("keyed insert: %v", err)
		}
	})
	last := frames[len(frames)-1].LSN

	ts := &tailServer{defaultDurable: last}
	ts.push(http.StatusOK, wire.ReplTailResponse{Frames: frames, DurableLSN: last})
	hs := httptest.NewServer(ts)
	defer hs.Close()

	fcat := followerCatalog(t)
	f := repl.NewFollower(repl.FollowerConfig{
		Primary: hs.URL, Catalog: fcat, Wait: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	waitFor(t, "first sync", func() bool { return f.Stats().Synced })

	st := f.Stats()
	if st.AppliedLSN != last || st.PrimaryDurableLSN != last {
		t.Fatalf("stats = %+v, want applied=durable=%d", st, last)
	}
	if ms, ok := f.StalenessMs(time.Now()); !ok || ms < 0 {
		t.Fatalf("staleness = %d,%v after sync, want a bound", ms, ok)
	}

	fe, err := fcat.Get("emp")
	if err != nil {
		t.Fatalf("follower Get: %v", err)
	}
	pe, _ := pcat.Get("emp")
	want, _ := pe.AnswerCtx(context.Background(), plan.Query{Kind: plan.QCurrent})
	got, _ := fe.AnswerCtx(context.Background(), plan.Query{Kind: plan.QCurrent})
	if len(got.Answer().Elements()) != len(want.Answer().Elements()) {
		t.Fatalf("follower holds %d current elements, want %d", len(got.Answer().Elements()), len(want.Answer().Elements()))
	}
	if !fe.HasIdemKey(idemKey) {
		t.Fatal("follower dedup window is missing the shipped idempotency key")
	}
	if fe.AppliedLSN() != last {
		t.Fatalf("relation applied lsn %d, want %d", fe.AppliedLSN(), last)
	}

	// The replica is read-only: every mutation path fails typed.
	if _, err := fe.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(900)}, ""); !errors.Is(err, catalog.ErrReadOnly) {
		t.Fatalf("follower insert = %v, want ErrReadOnly", err)
	}
	if _, err := fcat.Create(eventSchema("dept")); !errors.Is(err, catalog.ErrReadOnly) {
		t.Fatalf("follower create = %v, want ErrReadOnly", err)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run after cancel = %v, want nil", err)
	}
}

func TestFollowerReconnectsThroughTransportErrors(t *testing.T) {
	frames, _ := primaryFrames(t, func(c *catalog.Catalog) {
		if _, err := c.Create(eventSchema("emp")); err != nil {
			t.Fatalf("create: %v", err)
		}
	})
	last := frames[len(frames)-1].LSN

	ts := &tailServer{defaultDurable: last}
	ts.push(http.StatusServiceUnavailable, wire.ErrorBody{Error: wire.ErrorDetail{
		Code: wire.CodeUnavailable, Message: "primary draining",
	}})
	ts.push(http.StatusOK, wire.ReplTailResponse{Frames: frames, DurableLSN: last})
	hs := httptest.NewServer(ts)
	defer hs.Close()

	f := repl.NewFollower(repl.FollowerConfig{
		Primary: hs.URL, Catalog: followerCatalog(t),
		Wait: 10 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	waitFor(t, "sync after reconnect", func() bool { return f.Stats().Synced })
	if st := f.Stats(); st.Reconnects == 0 {
		t.Fatalf("stats = %+v, want at least one reconnect", st)
	}
}

func TestFollowerStopsFatallyOnTruncation(t *testing.T) {
	ts := &tailServer{}
	ts.push(http.StatusGone, wire.ErrorBody{Error: wire.ErrorDetail{
		Code: wire.CodeTruncated, Message: "oldest retained lsn is 900",
	}})
	hs := httptest.NewServer(ts)
	defer hs.Close()

	f := repl.NewFollower(repl.FollowerConfig{Primary: hs.URL, Catalog: followerCatalog(t)})
	err := f.Run(context.Background())
	if err == nil || !repl.IsTruncated(err) {
		t.Fatalf("Run against a truncated primary = %v, want truncated", err)
	}
	if f.Stats().Synced {
		t.Fatal("follower claims synced after fatal truncation")
	}
}
