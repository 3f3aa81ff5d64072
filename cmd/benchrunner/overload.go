package main

// S3 — overload behavior: acked-writes throughput and tail latency at
// offered loads of 1×, 4×, and 16× the write-class admission limit, with
// shedding on (bounded queue + max wait) and off (admission disabled).
// The claim under test: with shedding the server holds its acked
// throughput and keeps the tail of *successful* requests flat by
// refusing excess load early with typed, retryable errors; without it,
// every request eventually lands but the tail stretches with the number
// of waiters. Results go to BENCH_overload.json.
//
// The write path is given a deterministic per-commit cost: the WAL runs
// SyncAlways over an in-memory FS whose Sync sleeps syncDelay. On the
// small CI boxes this benchmark runs on (often one CPU), real fsync cost
// is noisy enough that whether handlers ever overlap is scheduler luck;
// a sleeping Sync always yields, so offered concurrency reliably
// accumulates at the admission gate — the regime the gate exists for —
// and capacity is a known ~1/syncDelay commits/sec in every cell.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/wal"
)

// slowFS wraps a wal.FS so every file Sync costs a fixed sleep on top of
// whatever the underlying FS does.
type slowFS struct {
	wal.FS
	delay time.Duration
}

func (s *slowFS) Create(name string) (wal.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, delay: s.delay}, nil
}

func (s *slowFS) OpenAppend(name string, size int64) (wal.File, error) {
	f, err := s.FS.OpenAppend(name, size)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, delay: s.delay}, nil
}

type slowFile struct {
	wal.File
	delay time.Duration
}

func (f *slowFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// overloadCell is one (multiplier, shedding) measurement.
type overloadCell struct {
	Multiplier  int     `json:"multiplier"` // offered clients / write limit
	Shedding    bool    `json:"shedding"`
	Clients     int     `json:"clients"`
	Acked       uint64  `json:"acked"`
	Shed        uint64  `json:"shed"`
	Errors      uint64  `json:"errors"`
	AckedPerSec float64 `json:"acked_per_sec"`
	P50MS       float64 `json:"acked_p50_ms"`
	P99MS       float64 `json:"acked_p99_ms"`
	// Server-side admission accounting (zero when shedding is off).
	ServerShedOverload uint64 `json:"server_shed_overload"`
	ServerShedTimeout  uint64 `json:"server_shed_timeout"`
	MaxQueueDepth      int    `json:"server_max_queue_depth"`
}

type overloadResult struct {
	Experiment  string         `json:"experiment"`
	WriteLimit  int            `json:"write_limit"`
	WriteQueue  int            `json:"write_queue"`
	MaxWaitMS   int64          `json:"max_wait_ms"`
	SyncDelayMS float64        `json:"sync_delay_ms"`
	CellMS      int64          `json:"cell_duration_ms"`
	Cells       []overloadCell `json:"cells"`
}

// runS3 measures each cell on a fresh server so queue state and history
// size never bleed across measurements.
func runS3(int) error {
	const (
		writeLimit  = 8
		writeQueue  = 16
		maxWait     = 50 * time.Millisecond
		syncDelay   = time.Millisecond
		shedBackoff = 25 * time.Millisecond
		cellDur     = time.Second
	)
	res := overloadResult{
		Experiment:  "S3",
		WriteLimit:  writeLimit,
		WriteQueue:  writeQueue,
		MaxWaitMS:   maxWait.Milliseconds(),
		SyncDelayMS: float64(syncDelay.Microseconds()) / 1000,
		CellMS:      cellDur.Milliseconds(),
	}
	fmt.Printf("write limit %d, queue %d, max wait %v, sync delay %v, %v per cell\n",
		writeLimit, writeQueue, maxWait, syncDelay, cellDur)
	for _, shedding := range []bool{true, false} {
		for _, mult := range []int{1, 4, 16} {
			cell, err := runOverloadCell(mult, shedding, writeLimit, writeQueue,
				maxWait, syncDelay, shedBackoff, cellDur)
			if err != nil {
				return fmt.Errorf("cell %dx shedding=%v: %w", mult, shedding, err)
			}
			res.Cells = append(res.Cells, cell)
			fmt.Printf("%3dx offered, shedding %-5v: %8.0f acked/s, p50 %6.2f ms, p99 %7.2f ms, shed %d\n",
				cell.Multiplier, cell.Shedding, cell.AckedPerSec, cell.P50MS, cell.P99MS, cell.Shed)
		}
	}
	return writeBench("BENCH_overload.json", res)
}

func runOverloadCell(mult int, shedding bool, limit, queue int,
	maxWait, syncDelay, shedBackoff, dur time.Duration) (overloadCell, error) {
	cell := overloadCell{Multiplier: mult, Shedding: shedding, Clients: limit * mult}

	adm := server.AdmissionConfig{Disabled: true}
	if shedding {
		adm = server.AdmissionConfig{
			Write: server.ClassLimit{Limit: limit, Queue: queue, MaxWait: maxWait},
		}
	}
	wlog, err := wal.Open(wal.Options{
		FS:           &slowFS{FS: wal.NewErrFS(), delay: syncDelay},
		Sync:         wal.SyncAlways,
		SegmentBytes: 64 << 20,
	})
	if err != nil {
		return cell, err
	}
	defer wlog.Close()
	cat := catalog.New(catalog.Config{WAL: wlog})
	if err := cat.Open(); err != nil {
		return cell, err
	}
	srv := server.New(server.Config{Catalog: cat, Admission: adm})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cell, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()

	ctx := context.Background()
	// One pooled transport per cell: without enough idle conns per host
	// the load queues in connection churn instead of reaching the
	// server's admission gate.
	tr := &http.Transport{
		MaxIdleConns:        cell.Clients + 8,
		MaxIdleConnsPerHost: cell.Clients + 8,
	}
	defer tr.CloseIdleConnections()
	pooled := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	admin := client.New("http://"+ln.Addr().String(), client.WithHTTPClient(pooled))
	if _, err := admin.Create(ctx, client.Schema{
		Name: "stream", ValidTime: "event", Granularity: 1,
	}); err != nil {
		return cell, err
	}

	var (
		wg      sync.WaitGroup
		vtSeq   atomic.Int64
		acked   atomic.Uint64
		shed    atomic.Uint64
		errs    atomic.Uint64
		latMu   sync.Mutex
		latency []time.Duration // acked requests only
	)
	deadline := time.Now().Add(dur)
	for c := 0; c < cell.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No retry policy: each loop measures one raw attempt. A shed
			// still pauses the loop briefly — a client that hammers with
			// zero backoff measures retry-storm CPU, not admission.
			cli := client.New("http://"+ln.Addr().String(), client.WithHTTPClient(pooled))
			var mine []time.Duration
			for time.Now().Before(deadline) {
				vt := vtSeq.Add(1)
				t0 := time.Now()
				_, err := cli.Insert(ctx, "stream", client.InsertRequest{VT: client.EventAt(vt)})
				d := time.Since(t0)
				switch {
				case err == nil:
					acked.Add(1)
					mine = append(mine, d)
				case client.IsOverloaded(err) || client.IsUnavailable(err):
					shed.Add(1)
					time.Sleep(shedBackoff)
				default:
					errs.Add(1)
				}
			}
			latMu.Lock()
			latency = append(latency, mine...)
			latMu.Unlock()
		}()
	}
	wg.Wait()
	if errs.Load() > 0 {
		return cell, fmt.Errorf("%d request(s) failed with non-shed errors", errs.Load())
	}
	cell.Acked = acked.Load()
	cell.Shed = shed.Load()
	cell.AckedPerSec = float64(cell.Acked) / dur.Seconds()
	sort.Slice(latency, func(i, j int) bool { return latency[i] < latency[j] })
	if len(latency) > 0 {
		cell.P50MS = float64(latency[len(latency)/2].Microseconds()) / 1000
		cell.P99MS = float64(latency[len(latency)*99/100].Microseconds()) / 1000
	}
	if shedding {
		m, err := admin.Metrics(ctx)
		if err != nil {
			return cell, err
		}
		w := m.Admission["write"]
		cell.ServerShedOverload = w.ShedOverload
		cell.ServerShedTimeout = w.ShedTimeout
		cell.MaxQueueDepth = w.MaxQueueDepth
		if clientShed := cell.Shed; w.ShedOverload+w.ShedTimeout+w.ShedCanceled != clientShed {
			return cell, fmt.Errorf("books don't balance: server shed %d+%d+%d, clients saw %d",
				w.ShedOverload, w.ShedTimeout, w.ShedCanceled, clientShed)
		}
	}
	return cell, nil
}
