// Command tsdbd serves a durable catalog of bitemporal relations over
// HTTP/JSON. It loads every persisted relation from the data directory on
// boot, snapshots dirty relations on an interval and on demand
// (POST /v1/snapshot), and flushes the whole catalog atomically on
// SIGINT/SIGTERM before exiting.
//
// Mutations are write-ahead logged by default (-wal-dir, defaulting to
// <data>/wal): each insert, delete, modify, declare, and create is appended
// and made durable per -wal-sync before the request is acknowledged, and the
// log is replayed over the snapshots on boot, so a kill -9 loses nothing
// acknowledged. Pass -wal-dir off for the pre-WAL snapshot-only behavior.
//
// With -follow the process is a read-only replica instead: it tails the
// named primary's WAL-shipping feed (/v1/repl/tail), replays the durable
// frames into its catalog, stamps every response with the staleness bound
// X-Tsdbd-Staleness-Ms, and rejects mutations with the typed "read_only"
// error. Followers keep no WAL of their own — their durability is the
// periodic snapshot, and on restart they resume the tail from the lowest
// persisted watermark.
//
// Every committed frame is also chained into a per-relation Merkle tree
// whose epoch roots the primary signs (key at <data>/integrity.ed25519),
// so clients can verify inclusion and append-only history without
// trusting the server. Sealed artifacts carry content checksums, and a
// background scrubber (-scrub-interval, paced by -scrub-rate) re-reads
// them; a mismatch quarantines the relation read-only and triggers
// repair. `tsdbd -addr HOST:PORT verify [rel ...]` runs that pass on
// demand against a live server.
//
// Usage:
//
//	tsdbd -addr :7070 -data ./tsdb-data -snapshot-interval 30s -wal-sync group
//	tsdbd -addr :7071 -data ./tsdb-follower -follow http://localhost:7070
//	tsdbd -addr localhost:7070 verify emp
//
// Quickstart against a running server:
//
//	curl -s localhost:7070/healthz
//	curl -s -X POST localhost:7070/v1/relations -d '{"schema":{
//	  "name":"emp","valid_time":"event","granularity":1,
//	  "invariant":[{"name":"name","type":"string"}],
//	  "varying":[{"name":"salary","type":"int"}]}}'
//	curl -s -X POST localhost:7070/v1/relations/emp/insert \
//	  -d '{"vt":{"event":100},"invariant":[{"kind":"string","str":"merrie"}],
//	       "varying":[{"kind":"int","int":27000}]}'
//	curl -s -X POST localhost:7070/v1/select \
//	  -d '{"query":"SELECT name, salary FROM emp"}'
//	curl -s localhost:7070/metrics
//
// Bulk loads should ride the batched ingest path instead of per-element
// inserts: POST /v1/relations/{name}/elements:batch journals a whole
// batch as one WAL frame and reports every element, and /v1/ingest/csv
// streams header-driven CSV (capped by -ingest-max-body) into server-side
// batches:
//
//	curl -s -X POST localhost:7070/v1/relations/emp/elements:batch -H 'Idempotency-Key: b1' \
//	  -d '{"elements":[{"vt":{"event":200},"invariant":[{"kind":"string","str":"tom"}],
//	       "varying":[{"kind":"int","int":31000}]}],"brief":true}'
//	curl -s -X POST --data-binary @rows.csv \
//	  'localhost:7070/v1/ingest/csv?relation=emp'
//
// A batch's idempotency key is its Idempotency-Key header: the same bytes
// posted again under it are answered from the dedup window (200, every
// element the first post stored "deduped"), and another body under it is
// refused 409. A body may instead carry "keys", one per element.
//
// With "brief":true (the typed client always sends it) a stored item
// whose valid time the granularity did not truncate is reported as
// {"status":"stored","assigned":{"es":…,"os":…,"tt_start":…}}: the rest of
// the element is the request's. Without it, and for deduped items, the
// element comes back whole.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	pprofhttp "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/integrity"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7070", "listen address")
	flag.StringVar(&o.dataDir, "data", "tsdb-data", "data directory for persisted relations")
	flag.DurationVar(&o.snapEvery, "snapshot-interval", 30*time.Second, "how often to flush dirty relations (0 disables)")
	flag.DurationVar(&o.reqTimeout, "request-timeout", 15*time.Second, "per-request handling timeout")
	flag.Int64Var(&o.maxBody, "max-body", 1<<20, "maximum request body size in bytes")
	flag.Int64Var(&o.ingestMaxBody, "ingest-max-body", 1<<30, "maximum streaming bulk-load (/v1/ingest/csv) body size in bytes")
	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second, "maximum time to read one request, body included (0 disables)")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Second, "maximum time to write one response (0 disables)")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 60*time.Second, "keep-alive idle timeout")
	flag.StringVar(&o.walDir, "wal-dir", "", "write-ahead log directory (default <data>/wal; \"off\" disables durability logging)")
	flag.StringVar(&o.walSync, "wal-sync", "group", "WAL sync policy: always, group, or interval")
	flag.Int64Var(&o.walSegBytes, "wal-segment-bytes", 64<<20, "WAL segment roll threshold in bytes")
	flag.IntVar(&o.admitReads, "admit-reads", 0, "concurrent read-class requests admitted (0 = default 64; -1 disables admission control)")
	flag.IntVar(&o.admitWrites, "admit-writes", 0, "concurrent write-class requests admitted (0 = default 16)")
	flag.IntVar(&o.admitAdmin, "admit-admin", 0, "concurrent admin-class requests admitted (0 = default 2)")
	flag.IntVar(&o.admitQueue, "admit-queue", 0, "bounded wait-queue depth per class (0 = class default)")
	flag.DurationVar(&o.admitMaxWait, "admit-max-wait", 0, "longest a queued request may wait for admission (0 = class default)")
	flag.Int64Var(&o.cacheBytes, "query-cache", 32<<20, "plan-keyed query result cache budget in bytes (0 disables)")
	flag.BoolVar(&o.pprof, "pprof", false, "expose /debug/pprof profiling endpoints (bypass admission control)")
	flag.StringVar(&o.follow, "follow", "", "run as a read-only follower of the given primary URL (disables the local WAL)")
	flag.BoolVar(&o.autoSpecialize, "auto-specialize", false, "run the background physical-design advisor: infer specialization classes from the observed extension, migrate stores when the advice changes, and seal append-only relations' full runs to measure their packed footprint")
	flag.DurationVar(&o.adviseEvery, "advise-interval", 15*time.Second, "how often the -auto-specialize advisor re-examines the catalog")
	flag.DurationVar(&o.scrubEvery, "scrub-interval", 5*time.Minute, "how often the background integrity scrubber re-verifies every sealed artifact (0 disables)")
	flag.Int64Var(&o.scrubRate, "scrub-rate", 8<<20, "scrub read bandwidth cap in bytes/sec (0 = unpaced)")
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		if err := runCommand(o, args); err != nil {
			log.Fatalf("tsdbd: %v", err)
		}
		return
	}

	if err := run(o); err != nil {
		log.Fatalf("tsdbd: %v", err)
	}
}

// options carries the parsed command line into run.
type options struct {
	addr, dataDir             string
	snapEvery, reqTimeout     time.Duration
	maxBody, ingestMaxBody    int64
	readTimeout, writeTimeout time.Duration
	idleTimeout               time.Duration
	walDir, walSync           string
	walSegBytes               int64
	admitReads, admitWrites   int
	admitAdmin, admitQueue    int
	admitMaxWait              time.Duration
	cacheBytes                int64
	pprof                     bool
	follow                    string
	autoSpecialize            bool
	adviseEvery               time.Duration
	scrubEvery                time.Duration
	scrubRate                 int64
}

// admission maps the flags onto the server's admission config.
// -admit-reads=-1 turns the controller off entirely.
func (o options) admission() server.AdmissionConfig {
	if o.admitReads < 0 {
		return server.AdmissionConfig{Disabled: true}
	}
	lim := func(n int) server.ClassLimit {
		return server.ClassLimit{Limit: n, Queue: o.admitQueue, MaxWait: o.admitMaxWait}
	}
	return server.AdmissionConfig{
		Read:  lim(o.admitReads),
		Write: lim(o.admitWrites),
		Admin: lim(o.admitAdmin),
	}
}

func run(o options) error {
	addr, dataDir, snapEvery := o.addr, o.dataDir, o.snapEvery
	walDir, walSync, walSegBytes := o.walDir, o.walSync, o.walSegBytes
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("creating data dir: %w", err)
	}
	var wlog *wal.Log
	if walDir == "" {
		walDir = filepath.Join(dataDir, "wal")
	}
	if o.follow != "" {
		// A follower's history arrives from the primary's log; keeping a
		// second local WAL would just duplicate it. Durability here is the
		// snapshot cycle plus the ability to re-tail anything newer.
		walDir = "off"
	}
	if walDir != "off" {
		policy, err := wal.ParseSyncPolicy(walSync)
		if err != nil {
			return err
		}
		wlog, err = wal.Open(wal.Options{Dir: walDir, Sync: policy, SegmentBytes: walSegBytes})
		if err != nil {
			return fmt.Errorf("opening wal: %w", err)
		}
		defer wlog.Close()
	}
	// Primaries sign their Merkle epoch roots so clients and followers can
	// verify history against a pinned key; the keypair persists next to the
	// data so roots stay verifiable across restarts. Followers serve
	// unsigned roots — their trust chain is consistency with the primary's.
	var signer *integrity.Signer
	if wlog != nil {
		var err error
		if signer, err = integrity.LoadOrCreateSigner(filepath.Join(dataDir, "integrity.ed25519")); err != nil {
			return fmt.Errorf("loading signing key: %w", err)
		}
	}
	cat := catalog.New(catalog.Config{
		Dir: dataDir, WAL: wlog, CacheBytes: o.cacheBytes, Follower: o.follow != "",
		Signer: signer,
	})
	if err := cat.Open(); err != nil {
		return fmt.Errorf("opening catalog: %w", err)
	}
	log.Printf("catalog: %d relation(s) loaded from %s", cat.Len(), dataDir)
	if wlog != nil {
		st := wlog.Stats()
		log.Printf("wal: %s (%s sync), %d segment(s), %d record(s) replayed in %s",
			walDir, walSync, st.Segments, st.Replayed, st.ReplayDuration.Round(time.Microsecond))
	}

	var follower *repl.Follower
	if o.follow != "" {
		follower = repl.NewFollower(repl.FollowerConfig{Primary: o.follow, Catalog: cat})
		log.Printf("follower: tailing %s from lsn %d", o.follow, cat.ResumeLSN()+1)
	}

	srv := server.New(server.Config{
		Catalog:        cat,
		RequestTimeout: o.reqTimeout,
		MaxBodyBytes:   o.maxBody,
		IngestMaxBytes: o.ingestMaxBody,
		Admission:      o.admission(),
		Follower:       follower,
		ScrubInterval:  o.scrubEvery,
		ScrubRate:      o.scrubRate,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", addr, err)
	}
	log.Printf("listening on %s", ln.Addr())

	// -pprof mounts the profiler on an outer mux, outside the request
	// timeout and admission control: profiling an overloaded server is
	// exactly when the probe must not queue behind the load it inspects.
	handler := srv.Handler()
	if o.pprof {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprofhttp.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprofhttp.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprofhttp.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprofhttp.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprofhttp.Trace)
		outer.Handle("/", handler)
		handler = outer
		log.Printf("pprof: profiling endpoints exposed at /debug/pprof/")
	}

	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       o.readTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The tail loop reconnects through transient primary outages on its
	// own; only a fatal condition (retention horizon passed the resume
	// point, or an apply failure) ends it. The process keeps serving —
	// reads stay up at a growing, honestly reported staleness, and the
	// operator decides whether to reseed or retire the node.
	if follower != nil {
		go func() {
			if err := follower.Run(ctx); err != nil {
				log.Printf("follower: replication stopped: %v", err)
			}
		}()
	}

	// The background advisor closes the specialization loop: it infers
	// classes from each relation's observed extension, migrates stores
	// when the advice changes (journaled, so followers adopt the same
	// design), and seals append-only relations' full runs, measuring their
	// packed footprint.
	// Followers never run it — their design replicates from the primary.
	if o.autoSpecialize && o.follow == "" && o.adviseEvery > 0 {
		go cat.RunAdvisor(ctx, o.adviseEvery, catalog.DefaultAdvisorConfig(),
			func(rep catalog.AdvisorReport, err error) {
				if err != nil {
					log.Printf("advisor: %v", err)
					return
				}
				for _, m := range rep.Migrations {
					log.Printf("advisor: migrated to %s (%s) at epoch %d", m.To, m.Source, m.Epoch)
				}
				if rep.Sealed > 0 {
					log.Printf("advisor: sealed %d element(s) into runs", rep.Sealed)
				}
			})
		log.Printf("advisor: auto-specialize enabled, interval %s", o.adviseEvery)
	}

	// Background integrity scrubber: one rate-limited verify pass over
	// every sealed artifact (WAL segments, snapshot shards, zone maps)
	// per -scrub-interval; a mismatch quarantines the relation and the
	// repair loop takes over. Runs on primaries and followers alike.
	if cat.IntegrityEnabled() && o.scrubEvery > 0 {
		go srv.RunScrubber(ctx)
		log.Printf("scrubber: verifying sealed artifacts every %s (%d B/s cap)", o.scrubEvery, o.scrubRate)
	}

	// Periodic snapshots: only dirty relations are rewritten, so an idle
	// server does no disk work.
	if snapEvery > 0 {
		go func() {
			tick := time.NewTicker(snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if n, err := cat.Snapshot(); err != nil {
						log.Printf("snapshot: %v", err)
					} else if n > 0 {
						log.Printf("snapshot: %d relation(s) written", n)
					}
				}
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		log.Printf("shutting down")
	}

	// Drain first: new requests get a typed, retryable "unavailable"
	// while Shutdown lets in-flight work complete.
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	// Final flush: Close snapshots every dirty relation, so an acknowledged
	// transaction survives the restart.
	if err := cat.Close(); err != nil {
		return fmt.Errorf("closing catalog: %w", err)
	}
	log.Printf("catalog flushed, bye")
	return nil
}

// runCommand dispatches a one-shot subcommand against a running server
// instead of serving. The only one today is verify:
//
//	tsdbd -addr localhost:7070 verify [rel ...]
//
// which scrubs and repairs every durable artifact covering the named
// relations (all of them when none are named) and exits non-zero if any
// corruption could not be repaired.
func runCommand(o options, args []string) error {
	switch args[0] {
	case "verify":
		return runVerify(o, args[1:])
	}
	return fmt.Errorf("unknown command %q (the only subcommand is: verify [rel ...])", args[0])
}

func runVerify(o options, rels []string) error {
	base := o.addr
	if strings.HasPrefix(base, ":") {
		base = "127.0.0.1" + base
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cli := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if len(rels) == 0 {
		infos, err := cli.List(ctx)
		if err != nil {
			return fmt.Errorf("listing relations on %s: %w", base, err)
		}
		for _, info := range infos {
			rels = append(rels, info.Name)
		}
	}
	unrepaired := 0
	for _, rel := range rels {
		rep, err := cli.Verify(ctx, rel)
		if err != nil {
			return fmt.Errorf("verifying %s: %w", rel, err)
		}
		fmt.Printf("%s: %d artifact(s) verified", rel, rep.Artifacts)
		if len(rep.Failures) == 0 {
			fmt.Println(", clean")
			continue
		}
		fmt.Printf(", %d corrupt, %d repaired\n", len(rep.Failures), rep.Repaired)
		for _, f := range rep.Failures {
			fmt.Printf("  corrupt: %s\n", f)
		}
		unrepaired += len(rep.Failures) - rep.Repaired
	}
	if unrepaired > 0 {
		return fmt.Errorf("%d artifact(s) remain corrupt after repair", unrepaired)
	}
	return nil
}
