package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The traced run. One process holds the generator, the server and the
// reference, and runs the workload's op list four times over the same
// generated input:
//
//	U  typed client over loopback HTTP, tracing off
//	T  the same with the tracer attached: spans at the four outer seams,
//	   /metrics deltas and device counts at the same boundaries
//	C  catalog.Entry called directly (depth replay, level 1)
//	L  the layers the catalog composes, called directly (level 2)
//
// and then re-times T's own log frames through wal.Log and the Merkle tree.
// Every pass keeps the reference's cadence and is read at T's reference
// speed. T ÷ U is the tracing overhead. Every layer's self time is its total minus
// what the level below accounts for, floored at zero; trace.self_sum_ratio
// says how far the floored parts overshoot the traced operation mean.
//
// The run measures half the measured run's requests: it executes them four
// times, and per-layer numbers carry no bound.

// plan leaf kinds the server books, in the order they are reported.
var leafKinds = []string{"full-scan", "tt-binary-search", "vt-binary-search", "tt-window-pushdown", "btree-index-seek", "columnar-scan"}

// httpPassResult is what one in-process HTTP pass leaves behind.
type httpPassResult struct {
	p             *pass
	before, after wire.MetricsResponse
	devBefore     deviceSnapshot
	devAfter      deviceSnapshot
	procBefore    procStat
	procAfter     procStat
	afterLSN      uint64 // last LSN of set-up and warm-up
	dataDir       string
	epochs        uint64
	deduped       int // elements the server answered from its dedup window
}

// httpPass runs set-up and the measured phase against an in-process server
// over loopback HTTP and closes the server, leaving its data directory.
func httpPass(sp *spec, pl inputs, dataDir string, tr *tracer, ref func() (time.Duration, error)) (httpPassResult, error) {
	r := httpPassResult{dataDir: dataDir}
	srv, err := startServer(dataDir, tr)
	if err != nil {
		return r, err
	}
	defer srv.close()
	be := newHTTPBackend(sp, srv.addr, tr)
	r.p = newPass(sp, be, ref)
	if err := setUp(r.p, pl); err != nil {
		return r, err
	}
	if r.before, err = be.cli.Metrics(bg); err != nil {
		return r, err
	}
	r.afterLSN = r.before.WAL.LastLSN
	r.devBefore = srv.dev.snapshot()
	if r.procBefore, err = readProc(os.Getpid()); err != nil {
		return r, err
	}
	e, err := srv.cat.Get(sp.rel)
	if err != nil {
		return r, err
	}
	epoch := e.Epoch()
	if tr != nil {
		tr.on.Store(true)
	}
	err = r.p.run(pl.measured, true)
	if tr != nil {
		tr.on.Store(false)
	}
	if err != nil {
		return r, err
	}
	r.epochs = e.Epoch() - epoch
	r.deduped = be.deduped
	if r.procAfter, err = readProc(os.Getpid()); err != nil {
		return r, err
	}
	r.devAfter = srv.dev.snapshot()
	r.after, err = be.cli.Metrics(bg)
	return r, err
}

// bootReplay starts a server on a closed data directory — the log replays
// the whole history, as after a crash — then snapshots it through the
// control route. It reports the boot time, the snapshot time and the bytes
// the snapshot wrote.
func bootReplay(dataDir string) (boot time.Duration, snapUS int64, snapBytes int64, err error) {
	start := time.Now()
	srv, err := startServer(dataDir, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	boot = time.Since(start)
	defer srv.close()
	var rep controlReply
	ctl := &control{base: "http://" + srv.addr, http: newHTTPClient(nil)}
	if err = ctl.post("/_bench/snapshot", &rep); err != nil {
		return
	}
	shards, err := filepath.Glob(filepath.Join(dataDir, "*.tsbl"))
	if err != nil {
		return
	}
	for _, s := range shards {
		if fi, serr := os.Stat(s); serr == nil {
			snapBytes += fi.Size()
		}
	}
	return boot, rep.Micros, snapBytes, nil
}

func runTraced(sp *spec, seed int64, seconds int) (result, runInfo, error) {
	requests := max(sp.opsPerSecond*seconds/2, 64)
	return traceWith(sp, newInputs(sp, seed, requests), seed, seconds)
}

func traceWith(sp *spec, pl inputs, seed int64, seconds int) (res result, info runInfo, err error) {
	info = runInfo{Workload: sp.name, Seed: seed, Seconds: seconds, OpstreamSHA: pl.sha, Clients: 1, FlushPolicy: "group"}
	res = result{Metrics: map[string]metric{}}
	runDir := runDirPath()
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return res, info, err
	}
	defer os.RemoveAll(runDir)
	info.DataDir = runDir

	refSrv, refAddr, err := startRef()
	if err != nil {
		return res, info, err
	}
	defer refSrv.Close()
	ref := refCaller(refAddr)

	var passes []*pass
	defer func() {
		for _, q := range passes {
			info.fold(q)
		}
		res.Attempted, res.Failed = info.OpsAttempted, info.OpsFailed
		res.Correct = res.Failed == 0
	}()

	// U and T.
	u, err := httpPass(sp, pl, filepath.Join(runDir, "u"), nil, ref)
	passes = append(passes, u.p)
	if err != nil {
		return res, info, fmt.Errorf("untraced pass: %w", err)
	}
	settle(u.p)
	tr := newTracer()
	t, err := httpPass(sp, pl, filepath.Join(runDir, "t"), tr, ref)
	passes = append(passes, t.p)
	if err != nil {
		return res, info, fmt.Errorf("traced pass: %w", err)
	}

	versions := len(t.p.m.vers)
	settle(t.p)

	// C: the catalog, directly. Its 304s are T's.
	cdir := filepath.Join(runDir, "c")
	csrv, err := startServer(cdir, nil)
	if err != nil {
		return res, info, err
	}
	next304 := 0
	cbe := &entryBackend{sp: sp, cat: csrv.cat, entryTimes: entryTimes{perCall: map[string]*callStat{}}}
	cbe.notModified = func() bool {
		was := next304 < len(t.p.log304) && t.p.log304[next304]
		next304++
		return was
	}
	c := newPass(sp, cbe, ref)
	passes = append(passes, c)
	err = setUp(c, pl)
	if err == nil {
		cbe.entryTimes = entryTimes{perCall: map[string]*callStat{}}
		err = c.run(pl.measured, true)
	}
	phys := cbe.e.Physical()
	csrv.close()
	if err != nil {
		return res, info, fmt.Errorf("catalog replay: %w", err)
	}
	cbe.cat, cbe.e = nil, nil
	settle(c)

	// L: the layers under the catalog.
	lbe := newLayerBackend(sp)
	l := newPass(sp, lbe, ref)
	passes = append(passes, l)
	if err := setUp(l, pl); err != nil {
		return res, info, fmt.Errorf("layer replay set-up: %w", err)
	}
	lbe.layerTimes = layerTimes{times: map[string]*callStat{}}
	if err := l.run(pl.measured, true); err != nil {
		return res, info, fmt.Errorf("layer replay: %w", err)
	}

	// T's frames through the log and the tree, then T's directory booted.
	recs, err := readFrames(filepath.Join(t.dataDir, "wal"))
	if err != nil {
		return res, info, err
	}
	fc, err := replayFrames(recs, t.afterLSN, filepath.Join(runDir, "frames"))
	if err != nil {
		return res, info, fmt.Errorf("frame replay: %w", err)
	}

	// The replays ran seconds to tens of seconds after T, on a machine that
	// had meanwhile sped up or slowed down. C and L kept the reference's
	// cadence, so each is brought to the speed T saw: its times × T's
	// reference median ÷ its own. (The frame replay takes a fraction of a
	// second and is read as measured.)
	tRef := median(t.p.refLat.us)
	kc, kl := tRef/median(c.refLat.us), tRef/median(l.refLat.us)
	scaleStats(cbe.perCall, kc)
	cbe.parse, cbe.decode, cbe.encode = scaled(cbe.parse, kc), scaled(cbe.decode, kc), scaled(cbe.encode, kc)
	scaleStats(lbe.times, kl)

	boot, snapUS, snapBytes, err := bootReplay(t.dataDir)
	if err != nil {
		return res, info, fmt.Errorf("boot replay: %w", err)
	}

	fsyncCost, err := probeFsync(runDir)
	if err != nil {
		return res, info, fmt.Errorf("fsync probe: %w", err)
	}

	layers := assemble(sp, pl, u, t, tr, cbe, phys, lbe, fc, fsyncCost, boot, snapUS, snapBytes, versions)
	for name, v := range layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, info, fmt.Errorf("per-layer metric %s is not a number", name)
		}
		res.Metrics[name] = metric{v, layerUnit(name)}
	}
	path, err := writeTrace(sp.name, tr.spans, layers)
	if err != nil {
		return res, info, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans and %d per-layer metrics in %s\n", sp.name, len(tr.spans), len(layers), path)
	return res, info, nil
}

// settle drops a finished pass's model and collects: every pass should
// start on the heap the first one started on, or the later replays run
// measurably slower than the pass they explain.
func settle(p *pass) {
	p.m = nil
	runtime.GC()
}

func scaled(d time.Duration, k float64) time.Duration { return time.Duration(float64(d) * k) }

func scaleStats(m map[string]*callStat, k float64) {
	for _, cs := range m {
		cs.total = scaled(cs.total, k)
	}
}

func countCached(ops []op) int {
	n := 0
	for i := range ops {
		if ops[i].cached {
			n++
		}
	}
	return n
}

// layerUnit derives a per-layer metric's unit from its name's suffix.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "_us_") || strings.Contains(name, "_us."):
		return "us"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_rel") || strings.HasSuffix(name, "_ratio"):
		return "x"
	case strings.Contains(name, "bytes"):
		return "B"
	}
	return "count"
}

// assemble turns the four passes and the frame replay into the per-layer
// metrics. Totals are in microseconds over the measured phase unless named
// otherwise; n is the number of measured requests.
func assemble(sp *spec, pl inputs, u, t httpPassResult, tr *tracer, cbe *entryBackend, phys catalog.Physical,
	lbe *layerBackend, fc frameCosts, fsyncCost, boot time.Duration, snapUS, snapBytes int64, versions int) map[string]float64 {
	L := map[string]float64{}
	n := float64(pl.requests)
	p := t.p
	usOf := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	stat := func(m map[string]*callStat, name string) (total float64, calls float64) {
		if cs := m[name]; cs != nil {
			return usOf(cs.total), float64(cs.n)
		}
		return 0, 0
	}
	meanOf := func(m map[string]*callStat, name string) float64 {
		total, calls := stat(m, name)
		return ratio(total, calls)
	}
	pct := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, q)
	}

	// client, ref
	for c, name := range map[opClass]string{classWrite: "write", classRead: "read", classAgg: "agg"} {
		L["client."+name+"_p50_us"] = pct(p.lat[c].us, 0.5)
		L["client."+name+"_p95_us"] = pct(p.lat[c].us, 0.95)
	}
	L["client.batch_p50_us"] = pct(append(append([]float64{}, p.preBatch...), p.lat[classBatch].us...), 0.5)
	L["ref.p50_us"], L["ref.p95_us"], L["ref.samples"] = pct(p.refLat.us, 0.5), pct(p.refLat.us, 0.95), float64(len(p.refLat.us))
	notModified := 0
	for _, nm := range p.log304[len(p.log304)-countCached(pl.measured):] {
		if nm {
			notModified++
		}
	}
	L["client.etag_304_ratio"] = ratio(float64(notModified), float64(countCached(pl.measured)))

	// spans: client, net, server
	self, count := selfTimes(tr.spans)
	var clientSelf, clientSpans float64
	classOf := map[int]string{}
	for _, s := range tr.spans {
		if cls, ok := strings.CutPrefix(s.Name, "client."); ok {
			classOf[s.ID] = cls
		}
	}
	for name, ns := range self {
		if strings.HasPrefix(name, "client.") {
			clientSelf += float64(ns) / 1e3
			clientSpans += float64(count[name])
		}
	}
	handlerBy, handlersBy := map[string]float64{}, map[string]float64{}
	var handlerTotal float64
	for _, s := range tr.spans {
		if s.Name == "server.handler" {
			d := float64(s.End-s.Start) / 1e3
			handlerTotal += d
			handlerBy[classOf[s.Req]] += d
			handlersBy[classOf[s.Req]]++
		}
	}
	L["client.self_us_per_op"] = clientSelf / n
	L["client.retries"] = float64(count["net.roundtrip"]) - clientSpans
	L["net.rtt_self_us_per_op"] = float64(self["net.roundtrip"]) / 1e3 / n
	for _, cls := range []string{"write", "read", "agg", "batch"} {
		L["server.handler_us."+cls] = ratio(handlerBy[cls], handlersBy[cls])
	}
	L["server.resp_bytes_per_op"] = float64(tr.respBytes.Load()) / n
	var waitP95, shed float64
	for _, adm := range t.after.Admission {
		waitP95 = max(waitP95, float64(adm.WaitP95US))
		shed += float64(adm.ShedOverload + adm.ShedTimeout + adm.ShedCanceled)
	}
	L["server.admission_wait_p95_us"], L["server.shed"] = waitP95, shed

	// wire and tsql.parse, replayed beside the catalog calls
	wireTotal := usOf(cbe.decode + cbe.encode)
	L["wire.decode_us_per_op"] = usOf(cbe.decode) / n
	L["wire.encode_us_per_op"] = usOf(cbe.encode) / n
	L["wire.encode_ns_per_element"] = ratio(float64(cbe.encode.Nanoseconds()), float64(cbe.encodedElems))
	parseTotal := usOf(cbe.parse)
	L["tsql.parse_us"] = ratio(parseTotal, float64(cbe.parses))

	// catalog: mean per public Entry call
	for metricName, call := range map[string]string{
		"insert_us": "insert", "modify_us": "modify", "delete_us": "delete",
		"timeslice_us": wire.QueryTimeslice, "rollback_us": wire.QueryRollback, "asof_us": wire.QueryAsOf,
		"select_agg_us": "select_agg", "advise_pass_us": "advise_pass", "compact_us": "compact",
	} {
		L["catalog."+metricName] = meanOf(cbe.perCall, call)
	}
	batchTotal, _ := stat(cbe.perCall, "insert_batch")
	L["catalog.insert_batch_ns_per_element"] = ratio(batchTotal*1e3, float64(cbe.elements))
	var catalogTotal, catalogWrites, writeCalls float64
	for name, cs := range cbe.perCall {
		if name == "advise_pass" || name == "compact" {
			continue // control ops, outside every request
		}
		catalogTotal += usOf(cs.total)
		switch name {
		case "insert", "modify", "delete", "insert_batch":
			catalogWrites += usOf(cs.total)
			writeCalls += float64(cs.n)
		}
	}
	L["catalog.epochs_per_write"] = ratio(float64(t.epochs), writeCalls)
	L["catalog.dedup_hits"] = float64(t.deduped)
	L["catalog.sealed_elements"] = float64(phys.Compaction.Sealed)
	L["catalog.stall_p95_rel"] = ratio(pct(p.stall, 0.95), L["ref.p95_us"])

	// frames: wal, device, integrity
	frames := float64(fc.frames)
	L["wal.write_us_per_frame"] = ratio(usOf(fc.write), frames)
	L["wal.wait_durable_us_per_frame"] = ratio(usOf(fc.wait), frames)
	wal0, wal1 := t.before.WAL, t.after.WAL
	appended := float64(wal1.AppendedRecords - wal0.AppendedRecords)
	elementsWritten := float64(lbe.inserted)
	L["wal.frames"] = appended
	L["wal.bytes_per_element"] = ratio(float64(t.devAfter.WriteBytes-t.devBefore.WriteBytes), elementsWritten)
	L["wal.fsyncs_per_write"] = ratio(float64(wal1.Fsyncs-wal0.Fsyncs), appended)
	L["wal.mean_batch"] = wal1.MeanBatch
	L["wal.segments"] = float64(wal1.Segments)
	L["wal.replay_elements_per_s"] = ratio(float64(versions), boot.Seconds())
	L["device.write_calls"] = float64(t.devAfter.WriteCalls - t.devBefore.WriteCalls)
	L["device.write_bytes"] = float64(t.devAfter.WriteBytes - t.devBefore.WriteBytes)
	L["device.sync_calls"] = float64(t.devAfter.SyncCalls - t.devBefore.SyncCalls)
	// What the elided flushes would have cost on this disk.
	L["device.sync_us_total"] = L["device.sync_calls"] * usOf(fsyncCost)
	L["integrity.leaf_us_per_frame"] = ratio(usOf(fc.leaf), frames)
	L["integrity.root_us"] = ratio(usOf(fc.root), frames)
	if ig0, ig1 := t.before.Integrity, t.after.Integrity; ig0 != nil && ig1 != nil {
		L["integrity.leaves"] = float64(ig1.Leaves - ig0.Leaves)
	}

	// layers under the catalog
	lt := lbe.times
	stage, _ := stat(lt, "relation.stage_commit")
	enforce, _ := stat(lt, "relation.enforce")
	track, _ := stat(lt, "core.track")
	insertStore, inserts := stat(lt, "storage.insert")
	L["relation.stage_commit_us_per_insert"] = ratio(stage, inserts)
	L["relation.enforce_us_per_insert"] = ratio(enforce, inserts)
	L["core.track_ns_per_insert"] = ratio(track*1e3, inserts)
	L["storage.insert_ns"] = ratio(insertStore*1e3, inserts)
	L["storage.timeslice_us"] = meanOf(lt, "storage.timeslice")
	L["storage.rollback_us"] = meanOf(lt, "storage.rollback")
	L["storage.vtrange_us"] = meanOf(lt, "storage.vtrange")
	L["storage.touched_per_result"] = ratio(float64(lbe.touched), float64(lbe.results))
	compact, _ := stat(lt, "storage.compact")
	L["storage.compact_us_per_run"] = ratio(compact, float64(lbe.compactRuns))
	cs := storage.Compaction(lbe.store)
	L["storage.sealed_bytes_per_element"] = ratio(float64(cs.PackedBytes), float64(cs.Sealed))
	reader, _ := stat(lt, "storage.batchreader")
	L["storage.batchreader_ns_per_element"] = ratio(reader*1e3, float64(lbe.colRows))
	L["storage.runs_skipped_ratio"] = ratio(float64(lbe.runsSkip), float64(lbe.runsSeen))
	L["storage.store_bytes_per_element"] = ratio(float64(storage.StoreBytes(lbe.store)), float64(lbe.store.Len()))
	build, builds := stat(lt, "plan.build")
	L["plan.build_ns"] = ratio(build*1e3, builds)
	for _, k := range leafKinds {
		L["plan.count."+k] = float64(t.after.Plans[k].Requests - t.before.Plans[k].Requests)
	}
	L["query.engine_self_us"] = meanOf(lt, "query.engine_self")
	qc0, qc1 := t.before.QueryCache, t.after.QueryCache
	hits, misses := float64(qc1.Hits-qc0.Hits), float64(qc1.Misses-qc0.Misses)
	L["qcache.hit_ratio"] = ratio(hits, hits+misses)
	L["qcache.evictions"] = float64(qc1.Evictions - qc0.Evictions)
	L["qcache.bytes"] = float64(qc1.Bytes)
	L["qcache.get_ns"] = meanOf(lt, "qcache.get") * 1e3
	L["qcache.put_ns"] = meanOf(lt, "qcache.put") * 1e3
	L["tsql.compile_us"] = meanOf(lt, "tsql.compile")
	colagg, _ := stat(lt, "vec.colagg")
	rowagg, _ := stat(lt, "vec.rowagg")
	filter, _ := stat(lt, "vec.filter")
	L["vec.colagg_ns_per_element"] = ratio(colagg*1e3, float64(lbe.colRows))
	L["vec.rowagg_ns_per_element"] = ratio(rowagg*1e3, float64(lbe.rowRows))
	_, filters := stat(lt, "vec.filter")
	L["vec.filter_ns_per_batch"] = ratio(filter*1e3, filters)
	L["backlog.snapshot_us"] = float64(snapUS)
	L["backlog.snapshot_bytes_per_element"] = ratio(float64(snapBytes), float64(versions))

	// proc: this process, which in the traced run holds all three roles
	L["proc.cpu_user_s"] = t.procAfter.userS - t.procBefore.userS
	L["proc.cpu_sys_s"] = t.procAfter.sysS - t.procBefore.sysS
	L["proc.rss_end_mb"] = t.procAfter.rssMB
	L["proc.ctx_switches_per_op"] = float64(t.procAfter.ctxSwitches-t.procBefore.ctxSwitches) / n

	// Self times, each floored at zero, and how they add up.
	//
	//	op        = client.self + net.self + handler
	//	handler   = server.self + wire + tsql.parse + catalog calls
	//	catalog   = catalog.self + layers + frames (wal + integrity)
	//	wal       = wal.self + device
	floor := func(x float64) float64 { return max(x, 0) }
	var layerTotal float64
	for name, st := range lt {
		switch name {
		case "tsql.parse", "catalog.asof_scan", "storage.compact", "vec.filter":
			// parse is booked beside C; the as-of scan is the catalog's own
			// code; compaction is a control op; the filter probe ran beside
			// the fold that vec.colagg already holds.
		default:
			layerTotal += usOf(st.total)
		}
	}
	deviceTotal := usOf(fc.devWrite)
	walSelf := floor(usOf(fc.write+fc.wait) - deviceTotal)
	integrityTotal := usOf(fc.leaf + fc.root)
	framesTotal := walSelf + deviceTotal + integrityTotal
	serverSelf := floor(handlerTotal - wireTotal - parseTotal - catalogTotal)
	catalogSelf := floor(catalogTotal - layerTotal - framesTotal)
	fmt.Fprintf(os.Stderr, "%s, us per request: traced mean %.0f = client self %.0f + net self %.0f + handler %.0f; handler against wire %.0f + parse %.0f + catalog (C) %.0f; catalog against layers (L) %.0f + frames %.0f\n",
		sp.name, mean(p.all.us), clientSelf/n, float64(self["net.roundtrip"])/1e3/n, handlerTotal/n, wireTotal/n, parseTotal/n, catalogTotal/n, layerTotal/n, framesTotal/n)
	L["server.self_us_per_op"] = serverSelf / n
	L["catalog.self_us_per_write"] = ratio(floor(catalogWrites-writeShare(lt)-framesTotal), writeCalls)
	// The overhead compares T and U each at its own reference speed.
	tracedMean := mean(p.all.us)
	untracedMean := mean(u.p.all.us) * median(p.refLat.us) / median(u.p.refLat.us)
	selfSum := clientSelf + float64(self["net.roundtrip"])/1e3 + serverSelf + wireTotal + parseTotal +
		catalogSelf + layerTotal + framesTotal
	L["trace.self_sum_ratio"] = ratio(selfSum/n, tracedMean)
	L["trace.overhead_ratio"] = ratio(tracedMean, untracedMean)
	return L
}

// writeShare sums the layer replay's time under mutations.
func writeShare(lt map[string]*callStat) float64 {
	var total float64
	for _, name := range []string{"relation.stage_commit", "relation.enforce", "relation.delete", "relation.modify",
		"core.track", "storage.insert", "storage.replace"} {
		if cs := lt[name]; cs != nil {
			total += float64(cs.total.Nanoseconds()) / 1e3
		}
	}
	return total
}
