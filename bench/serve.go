package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/integrity"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// benchServer is tsdbd as cmd/tsdbd wires it — wal.Open → catalog.New/Open
// → server.New, every default of its flags (group sync, 64 MiB segments,
// 32 MiB query cache, integrity and signer on, admission defaults) — with
// three differences, all about making counts repeat: no snapshot, advisor
// or scrub ticker runs, the control routes below run that work on request,
// and the WAL's file system is wrapped to count what the device is asked.
type benchServer struct {
	cat  *catalog.Catalog
	wlog *wal.Log
	srv  *server.Server
	dev  *deviceFS
	hs   *http.Server
	addr string
	done chan error
}

func startServer(dataDir string, tr *tracer) (*benchServer, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	walDir := filepath.Join(dataDir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	dev := &deviceFS{FS: wal.DirFS(walDir), tr: tr}
	wlog, err := wal.Open(wal.Options{FS: dev, Sync: wal.SyncGroup, SegmentBytes: 64 << 20})
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	signer, err := integrity.LoadOrCreateSigner(filepath.Join(dataDir, "integrity.ed25519"))
	if err != nil {
		wlog.Close()
		return nil, fmt.Errorf("loading signing key: %w", err)
	}
	cat := catalog.New(catalog.Config{Dir: dataDir, WAL: wlog, CacheBytes: 32 << 20, Signer: signer})
	if err := cat.Open(); err != nil {
		wlog.Close()
		return nil, fmt.Errorf("opening catalog: %w", err)
	}
	srv := server.New(server.Config{
		Catalog: cat, RequestTimeout: 15 * time.Second, MaxBodyBytes: 1 << 20,
	})
	s := &benchServer{cat: cat, wlog: wlog, srv: srv, dev: dev, done: make(chan error, 1)}

	handler := srv.Handler()
	if tr != nil {
		handler = tracingHandler(handler, tr)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /_bench/advise", s.handleAdvise)
	mux.HandleFunc("POST /_bench/compact", s.handleCompact)
	mux.HandleFunc("POST /_bench/snapshot", s.handleSnapshot)
	mux.Handle("/", handler)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wlog.Close()
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.hs = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// controlReply is what every control route answers.
type controlReply struct {
	Micros int64 `json:"us"`
	Sealed int   `json:"sealed,omitempty"`
	Saved  int   `json:"saved,omitempty"`
}

func reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// handleAdvise is one tick of tsdbd -auto-specialize: an advisor pass
// (re-advise, migrate, class-scheduled compaction).
func (s *benchServer) handleAdvise(w http.ResponseWriter, _ *http.Request) {
	start := time.Now()
	rep, err := s.cat.AdvisePass(catalog.DefaultAdvisorConfig())
	reply(w, controlReply{Micros: time.Since(start).Microseconds(), Sealed: rep.Sealed}, err)
}

// handleCompact is the advisor's class-scheduled compaction without its
// thresholds: it seals the stable prefix of every relation on the
// vt-ordered log, and only those. Set-up uses it so the preload ends sealed
// whatever the thresholds say.
func (s *benchServer) handleCompact(w http.ResponseWriter, _ *http.Request) {
	start := time.Now()
	sealed := 0
	for _, name := range s.cat.Names() {
		if e, err := s.cat.Get(name); err == nil && e.Physical().Org == storage.VTOrdered {
			sealed += e.Compact()
		}
	}
	reply(w, controlReply{Micros: time.Since(start).Microseconds(), Sealed: sealed}, nil)
}

func (s *benchServer) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	start := time.Now()
	n, err := s.cat.Snapshot()
	reply(w, controlReply{Micros: time.Since(start).Microseconds(), Saved: n}, err)
}

// close stops serving and closes the log without snapshotting, so the data
// directory holds exactly what a SIGKILL would have left.
func (s *benchServer) close() {
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	_ = s.wlog.Close()
}

// control posts to the server's /_bench routes.
type control struct {
	base string
	http *http.Client
}

// post calls one control route and decodes its reply into out, if given.
func (c *control) post(path string, out any) error {
	resp, err := c.http.Post(c.base+path, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, body)
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

// ---- the reference server

// refBlob is what the reference handler hashes on every request: enough
// CPU work to sit beside a database operation, none of it the database's.
var refBlob = func() []byte {
	b := make([]byte, 256<<10)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}()

// refHandler is the fixed reference round trip every latency is divided
// by: drain the body, SHA-256 a 256 KiB constant, answer 32 bytes of JSON.
// It shares nothing with the system under test except the machine, the
// kernel's loopback path and net/http. No later change may touch it: a
// faster reference would make every normalised latency look worse.
func refHandler(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	sum := sha256.Sum256(refBlob)
	w.Header().Set("Content-Type", "application/json")
	_, _ = fmt.Fprintf(w, `{"h":"%s"}`, hex.EncodeToString(sum[:12]))
}

func startRef() (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: http.HandlerFunc(refHandler), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	return hs, ln.Addr().String(), nil
}

// ---- child processes

// listenLine is how a child tells its parent where it listens.
const listenLine = "LISTEN "

// serveChild is `tsbench -serve`: the server child of a measured run.
func serveChild(dataDir string) error {
	s, err := startServer(dataDir, nil)
	if err != nil {
		return err
	}
	fmt.Println(listenLine + s.addr)
	return waitForSignal(s.done)
}

// refChild is `tsbench -ref`: the reference child of a measured run.
func refChild() error {
	_, addr, err := startRef()
	if err != nil {
		return err
	}
	fmt.Println(listenLine + addr)
	return waitForSignal(nil)
}

func waitForSignal(done <-chan error) error {
	ctx, stop := signal.NotifyContext(bg, os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		return nil
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// readListenLine waits for a child's LISTEN line.
func readListenLine(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), listenLine); ok {
			return addr, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("child exited before it listened")
}
