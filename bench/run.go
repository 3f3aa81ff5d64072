package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/client"
)

// outDir holds everything a run writes: data directories (removed when the
// run ends) and trace files. It is inside the checkout because the
// benchmark may write nowhere else; see README.md for what that does to
// fsync and why the latencies are the sandbox's, not a disk's.
var outDir = "bench/out"

const (
	setupRepeats    = 3 // set-up is timed this often per run; the median is reported
	recoveryRepeats = 5
	// recoveryRefs reference requests are sent before each kill and after
	// each recovery, to gauge the machine's speed around it.
	recoveryRefs = 16
)

// The nominal reference: one reference round trip takes refNominalUS of
// wall time and refNominalCPUUS of the reference server's CPU on the
// 2-core sandbox these numbers were calibrated on. The machine speeds up
// and slows down by ten to twenty percent from minute to minute, and a raw
// time follows it. The three end-to-end metrics that are times and not
// ratios (setup_s, recovery_s, cpu_us_per_op) are therefore reported at the
// nominal reference speed: the measured time, divided by what the reference
// cost beside it, times what the reference nominally costs. They stay in
// seconds and microseconds, a regression moves them one for one, and a slow
// minute moves them far less than it moves a raw time.
const (
	refNominalUS    = 400.0
	refNominalCPUUS = 350.0
)

// atNominal rescales a measured time to the nominal reference speed.
func atNominal(measured, refMeasured, refNominal float64) float64 {
	return measured * refNominal / refMeasured
}

// child is a spawned tsbench child: the server or the reference.
type child struct {
	cmd  *exec.Cmd
	addr string
}

// spawn starts this binary again with args and waits for its LISTEN line.
// Both children run with GOMAXPROCS=2, whatever the machine has.
func spawn(args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr, err := readListenLine(out)
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s %s: %w", filepath.Base(exe), strings.Join(args, " "), err)
	}
	go func() { _, _ = io.Copy(io.Discard, out) }()
	c := &child{cmd: cmd, addr: addr}
	children.Lock()
	children.live[c] = true
	children.Unlock()
	return c, nil
}

// children are the spawned processes still running, so that an interrupted
// run can stop them before it exits (killOnSignal).
var children = struct {
	sync.Mutex
	live map[*child]bool
}{live: map[*child]bool{}}

// kill sends SIGKILL and waits until the child has ended.
func (c *child) kill() {
	_ = c.cmd.Process.Signal(syscall.SIGKILL)
	_ = c.cmd.Wait()
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// killOnSignal stops every child and exits when the run is interrupted or
// told to end: no process this program started may outlive it.
func killOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		children.Lock()
		live := make([]*child, 0, len(children.live))
		for c := range children.live {
			live = append(live, c)
		}
		children.Unlock()
		for _, c := range live {
			c.kill()
		}
		_ = os.RemoveAll(runDirPath())
		os.Exit(1)
	}()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// runDirPath is this process's scratch directory under outDir: data
// directories live there and it is removed when the run ends.
func runDirPath() string { return filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid())) }

// newHTTPClient is one keep-alive connection, as a typed caller holds; with
// a tracer its transport records the round-trip spans.
func newHTTPClient(tr *tracer) *http.Client {
	var t http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	if tr != nil {
		t = &tracingTransport{t, tr}
	}
	return &http.Client{Transport: t, Timeout: 60 * time.Second}
}

func newHTTPBackend(sp *spec, addr string, tr *tracer) *httpBackend {
	base := "http://" + addr
	return &httpBackend{
		sp:  sp,
		cli: client.New(base, client.WithHTTPClient(newHTTPClient(tr))),
		ctl: &control{base: base, http: newHTTPClient(nil)},
		tr:  tr,
	}
}

// refBody is the reference request's payload: the size of a small insert.
var refBody = []byte(`{"vt":{"event":1000000},"invariant":[{"kind":"string","str":"s1"}],"varying":[{"kind":"int","int":500}]}`)

// refCaller returns the closed-loop reference request against addr.
func refCaller(addr string) func() (time.Duration, error) {
	hc := newHTTPClient(nil)
	url := "http://" + addr + "/ref"
	return func() (time.Duration, error) {
		start := time.Now()
		resp, err := hc.Post(url, "application/json", bytes.NewReader(refBody))
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(start)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("reference answered %s", resp.Status)
		}
		return d, err
	}
}

// inputs is a workload's generated input: the preload, the warm-up and the
// measured ops, and the hash of all of it.
type inputs struct {
	stamps         []stamp
	warm, measured []op
	sha            string
	requests       int // measured requests (ops that are not advisor passes)
}

func newInputs(sp *spec, seed int64, requests int) inputs {
	g := newGen(sp, seed)
	pl := inputs{stamps: g.preloadStamps(), requests: requests}
	ops, sha := g.ops(warmupOps + requests)
	pl.sha = sha
	n := 0
	for i := range ops {
		if ops[i].kind != opAdvise {
			n++
		}
		if n == warmupOps {
			pl.warm, pl.measured = ops[:i+1], ops[i+1:]
			break
		}
	}
	return pl
}

// setUp is everything before the measured phase, against one backend.
func setUp(p *pass, pl inputs) error {
	if err := p.be.create(); err != nil {
		return fmt.Errorf("create: %w", err)
	}
	if err := p.preload(pl.stamps); err != nil {
		return err
	}
	return p.run(pl.warm, false)
}

// procStat is a process's CPU time and context switches so far.
type procStat struct {
	userS, sysS float64
	ctxSwitches int64
	rssMB       float64 // VmRSS
	peakMB      float64 // VmHWM
}

// clockTick is USER_HZ: the unit of utime and stime in /proc/<pid>/stat,
// 100 on every Linux this runs on.
const clockTick = 100

func readProc(pid int) (procStat, error) {
	var ps procStat
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis. utime and stime are fields 14
	// and 15 of the line, so 12 and 13 after the state field.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 14 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	ps.userS, ps.sysS = ut/clockTick, st/clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseFloat(strings.Fields(v + " 0")[0], 64)
		switch k {
		case "VmRSS":
			ps.rssMB = n / 1024
		case "VmHWM":
			ps.peakMB = n / 1024
		case "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches":
			ps.ctxSwitches += int64(n)
		}
	}
	return ps, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// endToEndNames are the metrics a measured run prints, as BENCHMARK.json
// lists them.
var endToEndNames = []string{"setup_s", "op_mean_rel", "write_p50_rel", "write_p95_rel", "read_p50_rel", "read_p95_rel",
	"agg_p50_rel", "agg_p95_rel", "ingest_batch_p50_rel", "cpu_us_per_op", "rss_peak_mb", "recovery_s", "disk_bytes_per_element"}

// result is what one run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runInfo is what a run reports beside its metrics, on lines before the
// result line.
type runInfo struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	OpsAttempted  int    `json:"ops_attempted"`
	OpsFailed     int    `json:"ops_failed"`
	OpstreamSHA   string `json:"opstream_sha256"`
	Clients       int    `json:"clients"`
	FlushPolicy   string `json:"flush_policy"`
	DataDir       string `json:"data_dir"`
	FirstFailure  string `json:"first_failure,omitempty"`
	ChecksAgainst int    `json:"answers_checked_against_model"`
}

// fold adds a finished pass's op counts to the run's.
func (info *runInfo) fold(q *pass) {
	info.OpsAttempted += q.attempted
	info.OpsFailed += q.failed
	info.ChecksAgainst += q.checked
	if info.FirstFailure == "" && q.firstErr != nil {
		info.FirstFailure = q.firstErr.Error()
	}
}

// runMeasured is the measured run: generator here, server and reference as
// children, tracing off.
func runMeasured(sp *spec, seed int64, seconds int) (result, runInfo, error) {
	pl := newInputs(sp, seed, sp.opsPerSecond*seconds)
	info := runInfo{Workload: sp.name, Seed: seed, Seconds: seconds, OpstreamSHA: pl.sha,
		Clients: 1, FlushPolicy: "group"}
	res := result{Metrics: map[string]metric{}}

	runDir := runDirPath()
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return res, info, err
	}
	defer os.RemoveAll(runDir)
	info.DataDir = runDir

	refc, err := spawn("-ref")
	if err != nil {
		return res, info, err
	}
	defer refc.kill()
	ref := refCaller(refc.addr)

	// Set-up, several times; the last one goes on into the measured phase.
	var (
		srv      *child
		p        *pass
		dataDir  string
		setupS   []float64
		setupRaw []float64
		batchRel []float64
	)
	fold := info.fold
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			srv.kill()
			fold(p)
			if err := os.RemoveAll(dataDir); err != nil {
				return res, info, err
			}
		}
		dataDir = filepath.Join(runDir, fmt.Sprintf("data-%d", k))
		start := time.Now()
		if srv, err = spawn("-serve", "-data", dataDir); err != nil {
			return res, info, err
		}
		p = newPass(sp, newHTTPBackend(sp, srv.addr, nil), ref)
		if err := setUp(p, pl); err != nil {
			fold(p)
			return res, info, err
		}
		setupRaw = append(setupRaw, time.Since(start).Seconds())
		setupS = append(setupS, atNominal(setupRaw[k], median(p.preRef), refNominalUS))
		batchRel = append(batchRel, relSamples(p.preBatch, median(p.preRef))...)
	}

	before, err := readProc(srv.pid())
	if err != nil {
		return res, info, err
	}
	refBefore, err := readProc(refc.pid())
	if err != nil {
		return res, info, err
	}
	wallStart := time.Now()
	runErr := p.run(pl.measured, true)
	wall := time.Since(wallStart)
	after, perr := readProc(srv.pid())
	refAfter, _ := readProc(refc.pid())
	fold(p)
	if runErr != nil {
		return res, info, runErr
	}
	if perr != nil {
		return res, info, perr
	}
	diskBytes, err := dirBytes(dataDir)
	if err != nil {
		return res, info, err
	}

	recS, recRaw, err := recoveries(sp, &srv, dataDir, p.m, ref, &info)
	if err != nil {
		return res, info, err
	}

	refP50, refP95 := median(p.refLat.us), p95(p.refLat.us)
	batchRel = append(batchRel, relSamples(p.lat[classBatch].us, refP50)...)
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", median(setupS), "s")
	put("op_mean_rel", blockRel(&p.all, &p.refLat, mean, blockSamples), "x")
	for _, c := range []opClass{classWrite, classRead, classAgg} {
		put(classNames[c]+"_p50_rel", blockRel(&p.lat[c], &p.refLat, median, blockSamples), "x")
		put(classNames[c]+"_p95_rel", blockRel(&p.lat[c], &p.refLat, p95, blockSamplesP95), "x")
	}
	put("ingest_batch_p50_rel", median(batchRel), "x")
	cpu := (after.userS + after.sysS) - (before.userS + before.sysS)
	refCPU := (refAfter.userS + refAfter.sysS - refBefore.userS - refBefore.sysS) * 1e6 / float64(len(p.refLat.us))
	put("cpu_us_per_op", atNominal(cpu*1e6/float64(pl.requests), refCPU, refNominalCPUUS), "us")
	put("rss_peak_mb", after.peakMB, "MiB")
	put("recovery_s", median(recS), "s")
	put("disk_bytes_per_element", float64(diskBytes)/float64(len(p.m.vers)), "B")

	fmt.Fprintf(os.Stderr, "%s: measured phase %d requests in %.2fs; raw set-up %.2fs, recovery %.3fs, server CPU %.0fus/op; ref p50 %.0fus p95 %.0fus (%d samples); raw p50 us: write %.0f read %.0f agg %.0f batch %.0f; samples w/r/a/b %d/%d/%d/%d\n",
		sp.name, pl.requests, wall.Seconds(), median(setupRaw), median(recRaw), cpu*1e6/float64(pl.requests),
		refP50, refP95, len(p.refLat.us),
		median(p.lat[classWrite].us), median(p.lat[classRead].us), median(p.lat[classAgg].us), median(p.lat[classBatch].us),
		len(p.lat[classWrite].us), len(p.lat[classRead].us), len(p.lat[classAgg].us), len(p.lat[classBatch].us))

	for _, name := range endToEndNames {
		if m, ok := res.Metrics[name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, info, fmt.Errorf("%s: %s has no value (a class of the mix has no sample?)", sp.name, name)
		}
	}
	res.Attempted, res.Failed = info.OpsAttempted, info.OpsFailed
	res.Correct = res.Failed == 0
	return res, info, nil
}

// relSamples divides every sample by one reference statistic.
func relSamples(xs []float64, ref float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = rel(x, ref)
	}
	return out
}

// recoveries kills the server five times. Each time it measures SIGKILL →
// respawn on the same data directory → /readyz → first query answered; no
// snapshot was ever taken, so the log replays the whole history. Then,
// outside the clock, every acknowledged surrogate must be there and
// nothing else.
func recoveries(sp *spec, srv **child, dataDir string, m *model, ref func() (time.Duration, error), info *runInfo) (nominal, raw []float64, err error) {
	probe := m.vers[len(m.vers)/2].vtLo
	var gauge []float64
	refs := func() error {
		for i := 0; i < recoveryRefs; i++ {
			d, err := ref()
			if err != nil {
				return err
			}
			gauge = append(gauge, us(d))
		}
		return nil
	}
	for i := 0; i < recoveryRepeats; i++ {
		// The generator's own collector must not be running beside the
		// child's boot: it has two cores to share with it.
		runtime.GC()
		gauge = gauge[:0]
		if err := refs(); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		(*srv).kill()
		next, err := spawn("-serve", "-data", dataDir)
		if err != nil {
			return nil, nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		*srv = next
		cli := client.New("http://"+next.addr, client.WithHTTPClient(newHTTPClient(nil)))
		if r, err := cli.Ready(bg); err != nil || !r.Ready {
			return nil, nil, fmt.Errorf("recovery %d: not ready: %+v %v", i, r, err)
		}
		if _, err := cli.Timeslice(bg, sp.rel, probe); err != nil {
			return nil, nil, fmt.Errorf("recovery %d: first query: %w", i, err)
		}
		raw = append(raw, time.Since(start).Seconds())
		if err := refs(); err != nil {
			return nil, nil, err
		}
		nominal = append(nominal, atNominal(raw[i], median(gauge), refNominalUS))

		info.OpsAttempted++
		if err := checkRecovered(cli, sp, m); err != nil {
			info.OpsFailed++
			if info.FirstFailure == "" {
				info.FirstFailure = fmt.Sprintf("recovery %d: %v", i, err)
			}
		}
	}
	return nominal, raw, nil
}

// checkRecovered compares the recovered relation with the model: the
// current surrogates one for one, and the number of versions ever stored.
func checkRecovered(cli *client.Client, sp *spec, m *model) error {
	ri, err := cli.Info(bg, sp.rel)
	if err != nil {
		return err
	}
	if ri.Versions != len(m.vers) {
		return fmt.Errorf("%d version(s) recovered, %d acknowledged", ri.Versions, len(m.vers))
	}
	resp, err := cli.Select(bg, "SELECT es FROM "+sp.rel)
	if err != nil {
		return err
	}
	got := make([]uint64, len(resp.Rows))
	for i, r := range resp.Rows {
		if len(r) != 1 || r[0].Kind != "int" {
			return fmt.Errorf("unexpected row %+v", r)
		}
		got[i] = uint64(r[0].Int)
	}
	want := make([]uint64, len(m.live))
	for i, ord := range m.live {
		want[i] = m.vers[ord].es
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		return fmt.Errorf("%d current surrogate(s) recovered, %d acknowledged", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("surrogate %d recovered where %d was acknowledged", got[i], want[i])
		}
	}
	return nil
}
