package server_test

// Where signatures are made, end to end: none on the write path, one per
// served root whose tree has grown, one per relation a snapshot persists —
// counted by the server's own /metrics and checked under the pinned key.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/client"
	"repro/internal/integrity"
)

func TestIntegrityE2ESignaturesOnDemand(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p := bootIntegPrimary(t, dir, "")
	cli := client.New(p.base)

	signatures := func(what string, want uint64) {
		t.Helper()
		m, err := cli.Metrics(ctx)
		if err != nil || m.Integrity == nil {
			t.Fatalf("%s: metrics: %+v, %v", what, m.Integrity, err)
		}
		if m.Integrity.Signatures != want {
			t.Fatalf("%s: integrity.signatures = %d, want %d", what, m.Integrity.Signatures, want)
		}
	}
	insert := func(i int) {
		t.Helper()
		if _, err := cli.Insert(ctx, "emp", insertReq(int64(1000+i), fmt.Sprintf("e%d", i), int64(i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	const n = 25
	if _, err := cli.Create(ctx, empSchema()); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < n; i++ {
		insert(i)
	}
	signatures("after the writes", 0)

	// The key a client would pin out of band: the data directory's seed.
	seed, err := os.ReadFile(filepath.Join(dir, "integrity.ed25519"))
	if err != nil {
		t.Fatalf("reading the signing seed: %v", err)
	}
	signer, err := integrity.NewSigner(seed)
	if err != nil {
		t.Fatalf("NewSigner: %v", err)
	}
	pinned := signer.Public()

	ir, err := cli.Integrity(ctx, "emp")
	if err != nil || ir.Signed == nil {
		t.Fatalf("Integrity: %+v, %v", ir, err)
	}
	signatures("after the first GET", 1)
	var root integrity.Hash
	copy(root[:], ir.Signed.Root)
	if ir.Size != n+1 || ir.Signed.Size != n+1 || // the create frame and every insert
		!integrity.VerifyRoot(pinned, integrity.SignedRoot{Rel: ir.Signed.Rel, Size: ir.Signed.Size, Root: root, Sig: ir.Signed.Sig}) {
		t.Fatalf("served root: size %d (signed %d), want %d verifying under the pinned key", ir.Size, ir.Signed.Size, n+1)
	}

	// Nothing was written: the same signature answers again, and answers
	// the proofs a verifier asks for at that size.
	ir2, err := cli.Integrity(ctx, "emp")
	if err != nil || ir2.Signed == nil || !bytes.Equal(ir2.Signed.Sig, ir.Signed.Sig) {
		t.Fatalf("second Integrity: %+v, %v; want the first signature again", ir2.Signed, err)
	}
	hv := cli.HistoryVerifier("emp")
	hv.PinKey(pinned)
	if size, err := hv.Advance(ctx); err != nil || size != n+1 {
		t.Fatalf("Advance = %d, %v; want %d", size, err, n+1)
	}
	if _, err := hv.VerifyCommit(ctx, n); err != nil {
		t.Fatalf("VerifyCommit(%d): %v", n, err)
	}
	signatures("after re-reading an unchanged tree", 1)

	// A write, then a snapshot with no reader between: the snapshot signs
	// the root it persists — once, at the size it persists.
	insert(n)
	signatures("after one more write", 1)
	if _, err := cli.Snapshot(ctx); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	signatures("after the snapshot", 2)

	// Restart (a new process: its count starts over) and grow: the
	// verifier's anchor from before the restart must still be a prefix.
	addr := p.addr
	p.stop()
	p2 := bootIntegPrimary(t, dir, addr)
	defer p2.stop()
	insert(n + 1)
	insert(n + 2)
	signatures("after the restart's writes", 0)
	if size, err := hv.Advance(ctx); err != nil || size != n+4 {
		t.Fatalf("Advance across restart = %d, %v; want %d", size, err, n+4)
	}
	signatures("after advancing across the restart", 1)
}
