package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	vpindex "repro"
	"repro/internal/bench"
	"repro/internal/workload"
)

// ckptRound is one checkpoint's measured cost: the commit-lock pause, the
// bytes serialized, and the wall time of the whole call (capture + encode +
// fsync + rename).
type ckptRound struct {
	Kind        string  `json:"kind"` // "full" or "delta"
	PauseUsec   float64 `json:"pause_usec"`
	Bytes       int64   `json:"bytes"`
	WallSeconds float64 `json:"wall_seconds"`
	HotReports  int     `json:"hot_reports"` // reports issued since the previous checkpoint
}

// ckptSearchResult is one read path's whole-store search measurement. Pool
// misses are buffer-pool misses, i.e. the slot reads that actually reached
// the page file through pread or the mapping.
type ckptSearchResult struct {
	ReadPath       string  `json:"read_path"` // "pread" or "mmap"
	MmapActive     bool    `json:"mmap_active"`
	Searches       int     `json:"searches"`
	Seconds        float64 `json:"seconds"`
	SearchesPerSec float64 `json:"searches_per_sec"`
	PoolMisses     int64   `json:"pool_misses"`
}

// ckptReport is the BENCH_checkpoint.json schema: the incremental-checkpoint
// perf datapoint. The headline numbers are the full-vs-delta pause and byte
// ratios at a large resident set with a small hot set, the recovery cost of
// the full+delta chain, the mmap-vs-pread search comparison, and the mixed
// durable throughput with and without background delta checkpoints riding it.
type ckptReport struct {
	Experiment string `json:"experiment"`
	Dataset    string `json:"dataset"`
	Objects    int    `json:"objects"`
	HotSet     int    `json:"hot_set"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Rounds         []ckptRound `json:"rounds"`
	FullPauseUsec  float64     `json:"full_pause_usec"`
	DeltaPauseUsec float64     `json:"delta_pause_usec"` // mean over delta rounds
	PauseRatio     float64     `json:"pause_ratio"`      // full ÷ delta
	FullBytes      int64       `json:"full_bytes"`
	DeltaBytes     int64       `json:"delta_bytes"` // mean over delta rounds
	BytesRatio     float64     `json:"bytes_ratio"` // full ÷ delta

	DeltaChainLen    int64   `json:"delta_chain_len"`
	RecoverySeconds  float64 `json:"recovery_seconds"`
	RecoveryReplayed int64   `json:"recovery_replayed_records"`
	RecoveredObjects int     `json:"recovered_objects"`

	Search      []ckptSearchResult `json:"search"`
	MmapSpeedup float64            `json:"mmap_speedup"` // mmap searches/s ÷ pread searches/s

	ThroughputNoCkpt   float64 `json:"throughput_no_ckpt_ops_per_sec"`
	ThroughputWithCkpt float64 `json:"throughput_with_ckpt_ops_per_sec"`
	ThroughputRatio    float64 `json:"throughput_ratio"` // with ÷ without
}

// runCheckpoint measures what the incremental checkpoint machinery buys:
//
//   - Cost: a store holding ≥200k resident objects takes one full snapshot,
//     then delta checkpoints after re-reporting a ~1% hot set. The paper's
//     workloads are exactly this shape — a huge fleet, a small slice moving
//     between cuts — so the full-vs-delta pause and byte ratios are the
//     figure of merit.
//   - Recovery: the store reopens from the full snapshot plus the delta
//     chain plus the WAL tail, timed, and must recover every object.
//   - Read path: the same data directory is reopened with pread and with
//     mmap and hit with identical whole-domain searches through a small
//     buffer pool, so slot reads actually reach the page file.
//   - Throughput: concurrent batched reports run with no checkpoints and
//     with a background delta-checkpoint cadence riding the same load; the
//     ratio shows what continuous checkpointing costs the write path.
//
// Results go to stdout and to the JSON report at outPath.
func runCheckpoint(ds workload.Dataset, sc bench.Scale, seed int64, procs int, outPath string) error {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
		if procs < 8 {
			procs = 8
		}
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	// The experiment's point is a large resident set with a small hot set:
	// force at least 200k objects regardless of the global -objects scale.
	n := sc.Objects
	if n < 200_000 {
		n = 200_000
	}
	sc = bench.ScaleFor(n, sc.Queries, sc.Duration)
	hot := n / 100

	p := workload.DefaultParams(ds, n)
	p.Domain = vpindex.R(0, 0, sc.DomainSide, sc.DomainSide)
	p.Duration = sc.Duration
	p.Seed = seed
	gen, err := workload.NewGenerator(p)
	if err != nil {
		return err
	}
	objs := gen.Initial()
	sample := make([]vpindex.Vec2, len(objs))
	for i, o := range objs {
		sample[i] = o.Vel
	}

	openDir := func(dir string, extra ...vpindex.Option) (*vpindex.Store, error) {
		opts := []vpindex.Option{
			vpindex.WithKind(vpindex.Bx),
			vpindex.WithDomain(p.Domain),
			vpindex.WithShards(procs),
			vpindex.WithBufferPages(sc.Buffer),
			vpindex.WithVelocityPartitioning(2),
			vpindex.WithVelocitySample(sample),
			vpindex.WithSeed(seed),
			vpindex.WithDataDir(dir),
			vpindex.WithSyncPolicy(vpindex.SyncNone()),
		}
		return vpindex.Open(append(opts, extra...)...)
	}

	rep := ckptReport{
		Experiment: "checkpoint",
		Dataset:    string(ds),
		Objects:    n,
		HotSet:     hot,
		GoMaxProcs: procs,
	}
	fmt.Printf("checkpoint: %d resident objects, %d-object hot set (%d%%)\n\n",
		n, hot, 100*hot/n)

	dir, err := os.MkdirTemp("", "vpckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := openDir(dir)
	if err != nil {
		return err
	}
	if err := store.ReportBatch(objs); err != nil {
		store.Close()
		return err
	}

	// One full snapshot, then delta rounds over a churned hot set.
	rng := rand.New(rand.NewSource(seed + 101))
	churn := func() error {
		batch := make([]vpindex.Object, 0, 256)
		for i := 0; i < hot; i++ {
			o := objs[rng.Intn(len(objs))]
			o.Pos.X += rng.Float64() - 0.5
			o.Pos.Y += rng.Float64() - 0.5
			batch = append(batch, o)
			if len(batch) == cap(batch) {
				if err := store.ReportBatch(batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			return store.ReportBatch(batch)
		}
		return nil
	}
	const deltaRounds = 3
	var deltaPauseSum, deltaBytesSum float64
	for r := 0; r <= deltaRounds; r++ {
		kind := "delta"
		reports := hot
		if r == 0 {
			kind, reports = "full", 0
		} else if err := churn(); err != nil {
			store.Close()
			return err
		}
		start := time.Now()
		if err := store.Checkpoint(); err != nil {
			store.Close()
			return err
		}
		wall := time.Since(start).Seconds()
		st, _ := store.DurabilityStats()
		round := ckptRound{
			Kind:        kind,
			PauseUsec:   float64(st.CheckpointPauseNs) / 1e3,
			Bytes:       st.CheckpointBytes,
			WallSeconds: wall,
			HotReports:  reports,
		}
		rep.Rounds = append(rep.Rounds, round)
		if kind == "full" {
			rep.FullPauseUsec, rep.FullBytes = round.PauseUsec, round.Bytes
		} else {
			deltaPauseSum += round.PauseUsec
			deltaBytesSum += float64(round.Bytes)
		}
		fmt.Printf("  %-5s checkpoint: pause %9.0f µs, %10.2f MB, %.3fs wall\n",
			kind, round.PauseUsec, float64(round.Bytes)/1e6, wall)
	}
	rep.DeltaPauseUsec = deltaPauseSum / deltaRounds
	rep.DeltaBytes = int64(deltaBytesSum / deltaRounds)
	if rep.DeltaPauseUsec > 0 {
		rep.PauseRatio = rep.FullPauseUsec / rep.DeltaPauseUsec
	}
	if rep.DeltaBytes > 0 {
		rep.BytesRatio = float64(rep.FullBytes) / float64(rep.DeltaBytes)
	}
	st, _ := store.DurabilityStats()
	rep.DeltaChainLen = st.DeltaChainLen
	fmt.Printf("\n  full/delta ratios: pause %.1fx, bytes %.1fx (chain length %d)\n\n",
		rep.PauseRatio, rep.BytesRatio, rep.DeltaChainLen)
	if err := store.Close(); err != nil {
		return err
	}

	// Recovery from the full snapshot + delta chain + WAL tail.
	start := time.Now()
	recovered, err := openDir(dir)
	if err != nil {
		return err
	}
	rep.RecoverySeconds = time.Since(start).Seconds()
	rst, _ := recovered.DurabilityStats()
	rep.RecoveryReplayed = rst.ReplayedRecords
	rep.RecoveredObjects = recovered.Len()
	if err := recovered.Close(); err != nil {
		return err
	}
	if rep.RecoveredObjects != n {
		return fmt.Errorf("chain recovery lost objects: %d of %d", rep.RecoveredObjects, n)
	}
	fmt.Printf("  recovery from chain: %.3fs, %d WAL records replayed, all %d objects recovered\n\n",
		rep.RecoverySeconds, rep.RecoveryReplayed, rep.RecoveredObjects)

	// Read-path comparison on the identical data directory: a small buffer
	// pool forces searches through the page file, where mmap skips the
	// per-slot pread syscall.
	queries := gen.Queries(sc.Queries)
	searchPages := sc.Buffer / 16
	if searchPages < 8 {
		searchPages = 8
	}
	for _, path := range []string{"pread", "mmap"} {
		extra := []vpindex.Option{vpindex.WithBufferPages(searchPages)}
		if path == "mmap" {
			extra = append(extra, vpindex.WithMmap())
		}
		s, err := openDir(dir, extra...)
		if err != nil {
			return err
		}
		// Warm up once so both variants start from the same cache state.
		for _, q := range queries {
			if _, err := s.Search(q); err != nil {
				s.Close()
				return err
			}
		}
		readsBefore := s.Stats().Reads
		searchStart := time.Now()
		searches := 0
		for round := 0; round < 3; round++ {
			for _, q := range queries {
				if _, err := s.Search(q); err != nil {
					s.Close()
					return err
				}
				searches++
			}
		}
		seconds := time.Since(searchStart).Seconds()
		sst, _ := s.DurabilityStats()
		res := ckptSearchResult{
			ReadPath:       path,
			MmapActive:     sst.MmapReads,
			Searches:       searches,
			Seconds:        seconds,
			SearchesPerSec: float64(searches) / seconds,
			PoolMisses:     s.Stats().Reads - readsBefore,
		}
		rep.Search = append(rep.Search, res)
		fmt.Printf("  search via %-5s %5d searches, %7.3fs, %8.1f searches/s (%d pool misses, mmap active %v)\n",
			path, searches, seconds, res.SearchesPerSec, res.PoolMisses, res.MmapActive)
		if err := s.Close(); err != nil {
			return err
		}
	}
	if len(rep.Search) == 2 && rep.Search[0].SearchesPerSec > 0 {
		rep.MmapSpeedup = rep.Search[1].SearchesPerSec / rep.Search[0].SearchesPerSec
	}
	fmt.Printf("  mmap search speedup: %.2fx\n\n", rep.MmapSpeedup)

	// Mixed durable throughput with and without background delta
	// checkpoints: the cadence trips roughly every hot-set's worth of
	// reports, so several deltas (and possibly a compaction) land mid-run.
	const batchSize = 256
	totalOps := n
	for _, withCkpt := range []bool{false, true} {
		tdir, err := os.MkdirTemp("", "vpckpt-*")
		if err != nil {
			return err
		}
		extra := []vpindex.Option{vpindex.WithSyncPolicy(vpindex.SyncGroupCommit(500 * time.Microsecond))}
		if withCkpt {
			// The cadence counts WAL records and each batch is one record, so
			// a delta lands roughly every hot-set's worth of reports.
			extra = append(extra,
				vpindex.WithCheckpointEvery(hot/batchSize+1),
				vpindex.WithCheckpointCompaction(4, 0),
			)
		}
		s, err := openDir(tdir, extra...)
		if err != nil {
			os.RemoveAll(tdir)
			return err
		}
		if err := s.ReportBatch(objs); err != nil {
			s.Close()
			os.RemoveAll(tdir)
			return err
		}
		ran, seconds, err := hammerDurable(s, objs, procs, totalOps, batchSize, seed)
		tst, _ := s.DurabilityStats()
		cerr := s.Close()
		os.RemoveAll(tdir)
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		ops := float64(ran) / seconds
		label := "no checkpoints"
		if withCkpt {
			label = "delta cadence"
			rep.ThroughputWithCkpt = ops
		} else {
			rep.ThroughputNoCkpt = ops
		}
		fmt.Printf("  mixed throughput, %-14s %9.0f reports/s (%d checkpoints, %d compactions)\n",
			label+":", ops, tst.Checkpoints, tst.Compactions)
	}
	if rep.ThroughputNoCkpt > 0 {
		rep.ThroughputRatio = rep.ThroughputWithCkpt / rep.ThroughputNoCkpt
	}
	fmt.Printf("  throughput with background deltas at %.0f%% of checkpoint-free\n\n", rep.ThroughputRatio*100)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
