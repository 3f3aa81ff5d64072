package main

// S5 — replication: a WAL-backed primary with followers tailing its
// shipping feed, all in-process on loopback HTTP. Measures (a) how long
// a cold follower takes to catch up to a preloaded primary, and (b)
// aggregate read throughput through the fan-out router as the node
// count grows 1 → 2 → 3, with mutations still flowing to the primary.
// Results go to BENCH_cluster.json.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// clusterTopology is one node-count row of BENCH_cluster.json.
type clusterTopology struct {
	Nodes     int     `json:"nodes"`
	Reads     int     `json:"reads"`
	ReadsPerS float64 `json:"reads_per_sec"`
	// FollowerServed counts reads whose ring owner was a follower; with
	// every follower synced these never touch the primary.
	FollowerServed int64 `json:"follower_served"`
	// PrimaryShare is the fraction of the read storm the primary itself
	// had to serve (from its own /metrics delta). This is the quantity
	// that scales with node count even on a single-core host, where
	// aggregate QPS is pinned by the shared CPU: each added follower
	// takes its owned relations' reads off the primary entirely.
	PrimaryShare float64 `json:"primary_share"`
}

// clusterResult is the BENCH_cluster.json document.
type clusterResult struct {
	Experiment string `json:"experiment"`
	Relations  int    `json:"relations"`
	RowsPerRel int    `json:"rows_per_relation"`
	// CatchupMS is each follower's time from boot to first sync against
	// the fully preloaded primary.
	CatchupMS  []int64           `json:"catchup_ms"`
	Topologies []clusterTopology `json:"topologies"`
}

// clusterNode is one running server plus its teardown.
type clusterNode struct {
	url  string
	stop func()
}

func bootClusterPrimary(dir string) (*clusterNode, *catalog.Catalog, error) {
	w, err := wal.Open(wal.Options{Dir: dir + "/wal", Sync: wal.SyncGroup})
	if err != nil {
		return nil, nil, err
	}
	cat := catalog.New(catalog.Config{Dir: dir + "/data", WAL: w})
	if err := cat.Open(); err != nil {
		return nil, nil, err
	}
	srv := server.New(server.Config{Catalog: cat})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	node := &clusterNode{
		url: "http://" + ln.Addr().String(),
		stop: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			cat.Close()
		},
	}
	return node, cat, nil
}

// bootClusterFollower starts a replica tailing primary and blocks until
// its first sync, returning how long the catch-up took.
func bootClusterFollower(dir, primary string) (*clusterNode, time.Duration, error) {
	cat := catalog.New(catalog.Config{Dir: dir, Follower: true})
	if err := cat.Open(); err != nil {
		return nil, 0, err
	}
	fol := repl.NewFollower(repl.FollowerConfig{
		Primary: primary, Catalog: cat, Wait: 50 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	start := time.Now()
	go func() { defer close(done); fol.Run(ctx) }()
	for !fol.Stats().Synced {
		if time.Since(start) > 30*time.Second {
			cancel()
			return nil, 0, fmt.Errorf("follower failed to sync within 30s: %+v", fol.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	catchup := time.Since(start)
	srv := server.New(server.Config{Catalog: cat, Follower: fol})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, 0, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	node := &clusterNode{
		url: "http://" + ln.Addr().String(),
		stop: func() {
			cancel()
			<-done
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			hs.Shutdown(sctx)
			cat.Close()
		},
	}
	return node, catchup, nil
}

// runS5 preloads a primary, attaches two followers, and drives the
// router at each topology size.
func runS5(n int) error {
	// Enough relations that the consistent-hash split across ephemeral
	// node URLs concentrates near its expectation (primary owns ~1/nodes
	// of them) instead of being all-or-nothing.
	const (
		relations = 24
		readers   = 32
		window    = 600 * time.Millisecond
	)
	rows := n / relations
	if rows > 150 {
		rows = 150 // the read side is request-bound; keep preload seconds-scale
	}

	root, err := os.MkdirTemp("", "tsdbd-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	primary, pcat, err := bootClusterPrimary(root + "/primary")
	if err != nil {
		return err
	}
	defer primary.stop()

	ctx := context.Background()
	pcli := client.New(primary.url)
	rels := make([]string, relations)
	for i := range rels {
		rels[i] = fmt.Sprintf("rel%02d", i)
		if _, err := pcli.Create(ctx, client.Schema{
			Name: rels[i], ValidTime: "event", Granularity: 1,
		}); err != nil {
			return err
		}
		for j := 0; j < rows; j++ {
			if _, err := pcli.Insert(ctx, rels[i], client.InsertRequest{VT: client.EventAt(int64(j))}); err != nil {
				return err
			}
		}
	}
	durable := pcat.WAL().DurableLSN()
	fmt.Printf("primary preloaded: %d relations x %d rows (%d WAL records durable)\n", relations, rows, durable)

	res := clusterResult{Experiment: "S5", Relations: relations, RowsPerRel: rows}
	var followers []*clusterNode
	for i := 0; i < 2; i++ {
		f, catchup, err := bootClusterFollower(fmt.Sprintf("%s/follower%d", root, i), primary.url)
		if err != nil {
			return err
		}
		defer f.stop()
		followers = append(followers, f)
		res.CatchupMS = append(res.CatchupMS, catchup.Milliseconds())
		fmt.Printf("follower %d caught up %d records in %v\n", i+1, durable, catchup.Round(time.Millisecond))
	}

	// Drive the same read mix through the router at each topology size.
	// Reads carry a generous staleness budget so a synced follower always
	// qualifies; the router pins each relation to its ring owner.
	for nodes := 1; nodes <= 1+len(followers); nodes++ {
		var urls []string
		for _, f := range followers[:nodes-1] {
			urls = append(urls, f.url)
		}
		r := client.NewRouter(primary.url, urls, client.WithMaxStaleness(time.Minute))
		before, err := pcli.Metrics(ctx)
		if err != nil {
			return err
		}
		var (
			wg    sync.WaitGroup
			reads atomic.Int64
			stale atomic.Int64
			fails atomic.Int64
		)
		stop := time.Now().Add(window)
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; time.Now().Before(stop); i++ {
					rel := rels[i%len(rels)]
					q, err := r.Query(ctx, rel, client.QueryRequest{Kind: client.QueryCurrent})
					if err != nil || len(q.Elements) != rows {
						fails.Add(1)
						continue
					}
					reads.Add(1)
					if r.Owner(rel) != primary.url {
						stale.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		if f := fails.Load(); f > 0 {
			return fmt.Errorf("%d routed read(s) failed at %d node(s)", f, nodes)
		}
		after, err := pcli.Metrics(ctx)
		if err != nil {
			return err
		}
		// The primary's query-endpoint delta, minus the two /metrics probes
		// themselves (they are booked under "metrics", not "query").
		primaryReads := after.Endpoints["query"].Requests - before.Endpoints["query"].Requests
		top := clusterTopology{
			Nodes:          nodes,
			Reads:          int(reads.Load()),
			ReadsPerS:      float64(reads.Load()) / window.Seconds(),
			FollowerServed: stale.Load(),
		}
		if reads.Load() > 0 {
			top.PrimaryShare = float64(primaryReads) / float64(reads.Load())
		}
		res.Topologies = append(res.Topologies, top)
		fmt.Printf("%d node(s): %6.0f reads/s  (%d reads, %d follower-owned, primary served %.0f%%)\n",
			nodes, top.ReadsPerS, top.Reads, top.FollowerServed, 100*top.PrimaryShare)
	}

	return writeBench("BENCH_cluster.json", res)
}
