package main

// S8 — the integrity tax and the scrub rate. First the write path:
// acked-writes/sec through the WAL-backed catalog with the per-relation
// Merkle accounting on vs off, at the always and group sync policies.
// Group commit is the shipping default, so its overhead percentage is
// the headline number (the leaf hash rides inside an fsync batch; the
// budget is <=15%). Then the read-back path: one unpaced scrub pass over
// a sealed corpus — WAL segments, snapshot shards, frozen runs — timed
// end to end, in MB/s. Results go to BENCH_integrity.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/wal"
)

// integrityRow is one write-path configuration in BENCH_integrity.json.
type integrityRow struct {
	Name         string  `json:"name"`
	Sync         string  `json:"sync"`
	Integrity    bool    `json:"integrity"`
	AckedWrites  int     `json:"acked_writes"`
	DurationMS   int64   `json:"duration_ms"`
	WritesPerSec float64 `json:"acked_writes_per_sec"`
	MerkleLeaves uint64  `json:"merkle_leaves,omitempty"`
}

// scrubResult is the scrub-throughput half of BENCH_integrity.json.
type scrubResult struct {
	Artifacts      int     `json:"artifacts"`
	Failures       int     `json:"failures"`
	Bytes          uint64  `json:"bytes"`
	SealedElements int     `json:"sealed_elements"`
	DurationMS     int64   `json:"duration_ms"`
	MBPerSec       float64 `json:"mb_per_sec"`
}

// integrityResult is the BENCH_integrity.json document.
type integrityResult struct {
	Experiment        string         `json:"experiment"`
	Writers           int            `json:"writers"`
	WritesPerConfig   int            `json:"writes_per_config"`
	Repetitions       int            `json:"repetitions"`
	Configs           []integrityRow `json:"configs"`
	OverheadAlwaysPct float64        `json:"overhead_always_pct"`
	OverheadGroupPct  float64        `json:"overhead_group_pct"`
	Scrub             scrubResult    `json:"scrub"`
}

// runS8Config measures one write-path configuration: writers concurrent
// goroutines appending into their own relations through the WAL, with
// Merkle accounting toggled by on.
func runS8Config(name string, writers, perWriter int, policy wal.SyncPolicy, on bool) (integrityRow, error) {
	out := integrityRow{Name: name, Sync: policy.String(), Integrity: on, AckedWrites: writers * perWriter}
	dir, err := os.MkdirTemp("", "tsdb-igbench-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: policy})
	if err != nil {
		return out, err
	}
	defer w.Close()
	cat := catalog.New(catalog.Config{
		Dir: filepath.Join(dir, "data"), NewClock: logicalClocks(), WAL: w,
		DisableIntegrity: !on,
	})
	if err := cat.Open(); err != nil {
		return out, err
	}
	entries := make([]*catalog.Entry, writers)
	for i := range entries {
		e, err := cat.Create(relation.Schema{
			Name:        fmt.Sprintf("stream_%02d", i),
			ValidTime:   element.EventStamp,
			Granularity: 1,
		})
		if err != nil {
			return out, err
		}
		entries[i] = e
	}

	errc := make(chan error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := entries[g]
			for i := 0; i < perWriter; i++ {
				if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(i))}, ""); err != nil {
					errc <- fmt.Errorf("writer %d insert %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return out, err
	}
	elapsed := time.Since(start)

	out.DurationMS = elapsed.Milliseconds()
	out.WritesPerSec = float64(out.AckedWrites) / elapsed.Seconds()
	if on {
		st := cat.IntegrityStats()
		out.MerkleLeaves = st.Leaves
		// Every acknowledged write (plus each create) must be a leaf.
		if want := uint64(out.AckedWrites + writers); st.Leaves < want {
			return out, fmt.Errorf("%s: %d merkle leaves < %d acked records", name, st.Leaves, want)
		}
	}
	return out, cat.Close()
}

// buildScrubCorpus loads a sealed catalog under dir: small WAL segments
// so several seal, snapshot shards for every relation, and frozen runs
// compacted over the stable prefix. Returns the open catalog and the
// elements sealed into runs.
func buildScrubCorpus(dir string, rels, perRel int) (*catalog.Catalog, int, error) {
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncInterval, SegmentBytes: 1 << 18})
	if err != nil {
		return nil, 0, err
	}
	cat := catalog.New(catalog.Config{Dir: filepath.Join(dir, "data"), NewClock: logicalClocks(), WAL: w})
	if err := cat.Open(); err != nil {
		return nil, 0, err
	}
	for r := 0; r < rels; r++ {
		e, err := cat.Create(relation.Schema{
			Name:        fmt.Sprintf("corpus_%02d", r),
			ValidTime:   element.EventStamp,
			Granularity: 1,
		})
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < perRel; i++ {
			if _, err := e.InsertKeyed(context.Background(), relation.Insertion{VT: element.EventAt(chronon.Chronon(10 * (i + 1)))}, ""); err != nil {
				return nil, 0, err
			}
		}
	}
	// Zero thresholds: migrate to the advised store and seal frozen runs
	// over every stable prefix, so the scrub corpus has all three artifact
	// kinds.
	rep, err := cat.AdvisePass(catalog.AdvisorConfig{})
	if err != nil {
		return nil, 0, err
	}
	if _, err := cat.Snapshot(); err != nil {
		return nil, 0, err
	}
	return cat, rep.Sealed, nil
}

// runS8 measures the integrity write tax and the scrub rate, prints the
// table, and writes BENCH_integrity.json.
func runS8(n int) error {
	const writers, reps = 8, 3
	perWriter := n / writers
	// The always columns fsync once per write; keep them seconds-scale.
	if perWriter > 500 {
		perWriter = 500
	}
	if perWriter < 10 {
		perWriter = 10
	}
	res := integrityResult{Experiment: "S8", Writers: writers, WritesPerConfig: writers * perWriter, Repetitions: reps}

	configs := []struct {
		name   string
		policy wal.SyncPolicy
		on     bool
	}{
		{"always, integrity off", wal.SyncAlways, false},
		{"always, integrity on", wal.SyncAlways, true},
		{"group, integrity off", wal.SyncGroup, false},
		{"group, integrity on", wal.SyncGroup, true},
	}
	fmt.Printf("%d writers × %d acked writes per configuration, best of %d\n", writers, perWriter, reps)
	fmt.Printf("%-24s %12s %14s\n", "configuration", "writes/s", "merkle leaves")
	for _, cfg := range configs {
		var best integrityRow
		for r := 0; r < reps; r++ {
			row, err := runS8Config(cfg.name, writers, perWriter, cfg.policy, cfg.on)
			if err != nil {
				return err
			}
			if row.WritesPerSec > best.WritesPerSec {
				best = row
			}
		}
		res.Configs = append(res.Configs, best)
		fmt.Printf("%-24s %12.0f %14d\n", best.Name, best.WritesPerSec, best.MerkleLeaves)
	}
	overhead := func(off, on integrityRow) float64 {
		return 100 * (off.WritesPerSec - on.WritesPerSec) / off.WritesPerSec
	}
	res.OverheadAlwaysPct = overhead(res.Configs[0], res.Configs[1])
	res.OverheadGroupPct = overhead(res.Configs[2], res.Configs[3])
	fmt.Printf("integrity overhead: %.1f%% at always, %.1f%% at group (budget 15%%)\n",
		res.OverheadAlwaysPct, res.OverheadGroupPct)

	// Scrub throughput over a sealed corpus.
	dir, err := os.MkdirTemp("", "tsdb-igscrub-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	perRel := n / 4
	if perRel < 100 {
		perRel = 100
	}
	cat, sealed, err := buildScrubCorpus(dir, 4, perRel)
	if err != nil {
		return err
	}
	scr := cat.NewScrubber(0) // unpaced: measure the verify rate itself
	start := time.Now()
	checked, failed, err := scr.RunOnce(context.Background())
	if err != nil {
		return err
	}
	dur := time.Since(start)
	if failed != 0 {
		return fmt.Errorf("scrub found %d corrupt artifact(s) in a pristine corpus", failed)
	}
	st := scr.Stats()
	res.Scrub = scrubResult{
		Artifacts:      checked,
		Failures:       failed,
		Bytes:          st.Bytes,
		SealedElements: sealed,
		DurationMS:     dur.Milliseconds(),
		MBPerSec:       float64(st.Bytes) / (1 << 20) / dur.Seconds(),
	}
	fmt.Printf("scrub: %d artifact(s), %d byte(s), %d element(s) in frozen runs, %v (%.1f MB/s)\n",
		checked, st.Bytes, sealed, dur.Round(time.Millisecond), res.Scrub.MBPerSec)
	if err := cat.Close(); err != nil {
		return err
	}

	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_integrity.json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_integrity.json")
	return nil
}
