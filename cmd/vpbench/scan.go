package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	vpindex "repro"
	"repro/internal/bench"
	"repro/internal/workload"
)

// scanResult is one (shards, goroutines) measurement of the scan
// experiment.
type scanResult struct {
	Shards      int     `json:"shards"`
	Goroutines  int     `json:"goroutines"`
	Ops         int     `json:"ops"`
	Seconds     float64 `json:"seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	IOPerSearch float64 `json:"io_reads_per_search"`
	// HitsPerSearch counts buffer-pool hits per query: most page touches of
	// the leaf walk are cached internal nodes, which misses do not show.
	HitsPerSearch float64 `json:"hits_per_search"`
}

// scanReport is the BENCH_scan.json schema: the query-hot-path datapoint of
// the repo's perf trajectory — the batched leaf-walk scan engine over the
// lock-striped buffer pool, single-threaded and across the shard axis. (The
// committed BENCH_scan.json predates this schema: it also records the
// removed per-interval descent path as a baseline and their speedups.)
type scanReport struct {
	Experiment    string       `json:"experiment"`
	Dataset       string       `json:"dataset"`
	Objects       int          `json:"objects"`
	BufferPages   int          `json:"buffer_pages"`
	DiskLatencyUS float64      `json:"disk_latency_us"`
	GoMaxProcs    int          `json:"gomaxprocs"`
	Results       []scanResult `json:"results"`
	// SpeedupShards is search throughput at shards=N over shards=1, both at
	// the full worker count (the striped-pool/fan-out axis).
	SpeedupShards float64 `json:"speedup_shards"`
}

// runScan measures the batched leaf-walk scan engine (bptree.ScanMany under
// bxtree.searchBucket) on a search-only workload: G goroutines issuing
// predictive range queries against a velocity-partitioned Bx Store with
// simulated per-page disk latency, across shards=1 and shards=N, plus one
// single-threaded run at zero latency. Results go to stdout and to the JSON
// report at outPath.
func runScan(ds workload.Dataset, sc bench.Scale, seed int64, procs int, latency time.Duration, outPath string) error {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
		if procs < 8 {
			procs = 8
		}
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	p := workload.DefaultParams(ds, sc.Objects)
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

	// Hold the aggregate page-cache budget constant across the shard axis
	// (each of the shards × 3 pools gets an equal slice), as in the
	// concurrency experiment, so the shards axis isolates lock overlap. The
	// floor gives every pool at least 8 pages at the widest sharding:
	// one-page pools degrade every engine to a miss per page touch, which
	// measures cache starvation rather than the scan path.
	totalPages := sc.Buffer
	if min := procs * 3 * 8; totalPages < min {
		totalPages = min
	}
	rep := scanReport{
		Experiment:    "scan",
		Dataset:       string(ds),
		Objects:       len(objs),
		BufferPages:   totalPages,
		DiskLatencyUS: float64(latency) / float64(time.Microsecond),
		GoMaxProcs:    procs,
	}

	searchOps := 3 * len(objs) / 8
	open := func(shards int, lat time.Duration) (*vpindex.Store, error) {
		store, err := vpindex.Open(
			vpindex.WithKind(vpindex.Bx),
			vpindex.WithDomain(p.Domain),
			vpindex.WithShards(shards),
			vpindex.WithBufferPages(totalPages/(shards*3)),
			vpindex.WithDiskLatency(lat),
			vpindex.WithMaxUpdateInterval(p.Duration),
			vpindex.WithVelocityPartitioning(2),
			vpindex.WithVelocitySample(sample),
			vpindex.WithSeed(seed),
		)
		if err != nil {
			return nil, err
		}
		if err := store.ReportBatch(objs); err != nil {
			return nil, err
		}
		return store, nil
	}
	measure := func(store *vpindex.Store, shards, g, ops int) (scanResult, error) {
		ran, seconds, reads, hits, err := hammerSearch(store, p.Domain, g, ops, seed)
		if err != nil {
			return scanResult{}, err
		}
		r := scanResult{
			Shards:        shards,
			Goroutines:    g,
			Ops:           ran,
			Seconds:       seconds,
			OpsPerSec:     float64(ran) / seconds,
			IOPerSearch:   float64(reads) / float64(ran),
			HitsPerSearch: float64(hits) / float64(ran),
		}
		rep.Results = append(rep.Results, r)
		fmt.Printf("scan: shards=%-3d g=%-3d %7d ops, %8.3fs, %9.0f ops/s, %7.1f reads + %8.1f hits /search\n",
			shards, g, ran, seconds, r.OpsPerSec, r.IOPerSearch, r.HitsPerSearch)
		return r, nil
	}

	// Single-threaded, zero injected latency: one thread under latency is
	// sleep-bound, so a CPU regression would be invisible; measuring
	// CPU-bound makes it the strict datapoint.
	store, err := open(1, 0)
	if err != nil {
		return err
	}
	if _, err := measure(store, 1, 1, searchOps/4); err != nil {
		return err
	}

	// Parallel axis with injected latency: the sleeps overlap across the
	// workers, so throughput is bounded by scan CPU and lock contention —
	// the costs the batched engine and the striped pool attack.
	tput := map[int]float64{}
	for _, shards := range []int{1, procs} {
		store, err := open(shards, latency)
		if err != nil {
			return err
		}
		r, err := measure(store, shards, procs, searchOps)
		if err != nil {
			return err
		}
		tput[shards] = r.OpsPerSec
	}
	rep.SpeedupShards = tput[procs] / tput[1]
	fmt.Printf("scan: shards=%d over 1: %.2fx at %d workers\n\n", procs, rep.SpeedupShards, procs)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("scan: wrote %s\n\n", outPath)
	return nil
}

// hammerSearch runs ~ops predictive range queries across g goroutines,
// returning the count actually executed, the wall-clock seconds, and the
// buffer-pool reads (misses) and hits the measured queries incurred. The
// query shape matches the paper's default workload: circular regions with a
// predictive horizon long enough that velocity enlargement dominates the
// scanned key ranges.
func hammerSearch(store *vpindex.Store, domain vpindex.Rect, g, ops int, seed int64) (int, float64, int64, int64, error) {
	var (
		wg      sync.WaitGroup
		errOnce sync.Mutex
		firstE  error
	)
	fail := func(err error) {
		errOnce.Lock()
		if firstE == nil {
			firstE = err
		}
		errOnce.Unlock()
	}
	side := domain.Width()
	per := ops / g
	if per < 1 {
		per = 1
	}
	// Unmeasured warmup: the first queries after a load evict the loader's
	// dirty pages (paying write-back latency) and fault the hot upper tree
	// levels in; neither belongs to the steady-state search cost.
	warm := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < per/4+1; i++ {
		c := vpindex.V(domain.MinX+warm.Float64()*side, domain.MinY+warm.Float64()*domain.Height())
		if _, err := store.Search(vpindex.SliceQuery(vpindex.Circle{C: c, R: side / 40}, 0, 60)); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	before := store.Stats()
	start := time.Now()
	wg.Add(g)
	for w := 0; w < g; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*1000))
			for i := 0; i < per; i++ {
				c := vpindex.V(domain.MinX+rng.Float64()*side, domain.MinY+rng.Float64()*domain.Height())
				q := vpindex.SliceQuery(vpindex.Circle{C: c, R: side / 40}, 0, 60)
				if _, err := store.Search(q); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seconds := time.Since(start).Seconds()
	after := store.Stats()
	return per * g, seconds, after.Reads - before.Reads, after.Hits - before.Hits, firstE
}
