package server_test

// A batch's idempotency key is its request's Idempotency-Key header, over
// the wire, for a client that is not the typed one: a raw POST with the
// header and no per-element keys.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tx"
	"repro/internal/wal"
	"repro/internal/wire"
)

// bootOnLog serves a catalog recovered from the log on fs alone (no
// snapshot directory): what a process restarted after a crash serves.
func bootOnLog(t *testing.T, fs *wal.ErrFS) *httptest.Server {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Sync: wal.SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cat := catalog.New(catalog.Config{NewClock: func() tx.Clock { return tx.NewLogicalClock(0, 10) }, WAL: w})
	if err := cat.Open(); err != nil {
		t.Fatalf("catalog.Open: %v", err)
	}
	hs := httptest.NewServer(server.New(server.Config{Catalog: cat}).Handler())
	t.Cleanup(hs.Close)
	return hs
}

// postBatch posts body to the relation's batch endpoint under key and
// returns the status and, on success, the report.
func postBatch(t *testing.T, base, rel, key string, body []byte) (int, wire.BatchInsertResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/relations/"+rel+"/elements:batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.HeaderIdempotencyKey, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	var out wire.BatchInsertResponse
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(payload, &out); err != nil {
			t.Fatalf("batch report %s: %v", payload, err)
		}
	}
	return resp.StatusCode, out
}

// TestBatchKeyReachOverTheWire: a 256-element batch posted with only the
// Idempotency-Key header, then 40 more batches to the same relation, then
// the same bytes under the same key: 200, every item deduped with its
// original element, nothing stored twice — live, and on a server restarted
// from the log after a crash. A prefix of the batch, or a changed body,
// under that key is refused 409 and stores nothing. (Before a batch was
// keyed by its header, that request was unkeyed and its replay stored
// all 256 elements again.)
func TestBatchKeyReachOverTheWire(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewErrFS()
	hs := bootOnLog(t, fs)
	if _, err := client.New(hs.URL).Create(ctx, empSchema()); err != nil {
		t.Fatal(err)
	}
	batch := func(from int) wire.BatchInsertRequest {
		req := wire.BatchInsertRequest{Elements: make([]wire.InsertRequest, 256)}
		for i := range req.Elements {
			req.Elements[i] = insertReq(int64(from+i), fmt.Sprintf("e%d", from+i), int64(i))
		}
		return req
	}
	encode := func(req wire.BatchInsertRequest) []byte {
		body, err := req.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	original := batch(0)
	body := encode(original)
	code, first := postBatch(t, hs.URL, "emp", "K", body)
	if code != http.StatusCreated || first.Stored != 256 {
		t.Fatalf("first batch: %d, %d stored", code, first.Stored)
	}
	for b := 1; b <= 40; b++ {
		if code, rep := postBatch(t, hs.URL, "emp", fmt.Sprintf("later-%d", b), encode(batch(256*b))); code != http.StatusCreated || rep.Stored != 256 {
			t.Fatalf("later batch %d: %d, %d stored", b, code, rep.Stored)
		}
	}
	const versions = 41 * 256
	count := func(base string) int {
		q, err := client.New(base).Current(ctx, "emp")
		if err != nil {
			t.Fatal(err)
		}
		return len(q.Elements)
	}
	replay := func(route, base string) {
		t.Helper()
		code, rep := postBatch(t, base, "emp", "K", body)
		if code != http.StatusOK || rep.Stored != 0 || rep.Deduped != 256 {
			t.Fatalf("%s: the replay answered %d, %d stored, %d deduped", route, code, rep.Stored, rep.Deduped)
		}
		for i, it := range rep.Items {
			if it.Status != "deduped" || it.Element == nil || it.Element.ES != first.Items[i].Element.ES || it.Element.TTStart != first.Items[i].Element.TTStart {
				t.Fatalf("%s: replayed item %d is %+v, want the original %+v", route, i, it, first.Items[i])
			}
		}
		changed := batch(0)
		changed.Elements[7].Varying = []wire.Value{wire.Int(-1)}
		prefix := batch(0)
		prefix.Elements = prefix.Elements[:100]
		for what, other := range map[string][]byte{"a changed body": encode(changed), "a prefix": encode(prefix)} {
			if code, _ := postBatch(t, base, "emp", "K", other); code != http.StatusConflict {
				t.Fatalf("%s: %s under the batch's key answered %d, want 409", route, what, code)
			}
		}
		if n := count(base); n != versions {
			t.Fatalf("%s: %d elements current after the replays, want %d", route, n, versions)
		}
	}
	replay("live", hs.URL)

	hs.Close()
	fs.CrashRecover()
	replay("restarted", bootOnLog(t, fs).URL)
}
