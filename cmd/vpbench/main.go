// Command vpbench regenerates the experiments of "Boosting Moving Object
// Indexing through Velocity Partitioning" (VLDB 2012). Each -exp value
// corresponds to a figure of the paper's Section 6; the output is a table
// with the same series the figure plots.
//
// Usage:
//
//	vpbench -exp fig19                 # all datasets, reduced default scale
//	vpbench -exp store                 # production Store facade: batch load,
//	                                   # online VP bootstrap, report throughput
//	vpbench -exp fig21 -paper          # Table 1 scale (minutes)
//	vpbench -exp all -objects 10000    # everything, custom scale
//	vpbench -exp fig7 -points fig7.csv # also dump the scatter points
//
// Scale notes: -objects picks the population; the domain side and buffer
// pool scale with it to preserve the paper's object density and
// buffer-to-index ratio (see internal/bench). -paper forces Table 1
// parameters exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	vpindex "repro"
	"repro/internal/bench"
	"repro/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "fig19", "experiment: store|concurrency|scan|drift|partition|monitor|durability|ingest|checkpoint|faults|dva|fig7|fig17|fig18|fig19|fig20|fig21|fig22|fig23|fig24|all")
		objects  = flag.Int("objects", 20000, "number of moving objects")
		queries  = flag.Int("queries", 200, "number of range queries")
		duration = flag.Float64("duration", 120, "workload duration (ts)")
		paper    = flag.Bool("paper", false, "use Table 1 scale (100K objects, 240 ts, 100 km domain)")
		seed     = flag.Int64("seed", 42, "workload seed")
		points   = flag.String("points", "", "CSV file for fig7 scatter points")
		dataset  = flag.String("dataset", "CH", "dataset for fig17/dva: CH|SA|MEL|NY|uniform")
		out      = flag.String("out", "", "JSON output path for -exp concurrency/drift (default BENCH_<exp>.json)")
		procs    = flag.Int("procs", 0, "worker goroutines for -exp concurrency/monitor (0 = max(8, GOMAXPROCS))")
		latency  = flag.Duration("latency", 20*time.Microsecond, "simulated per-page disk latency for -exp concurrency")
		subs     = flag.Int("subs", 1000, "standing subscriptions for -exp monitor")
	)
	flag.Parse()

	sc := bench.ScaleFor(*objects, *queries, *duration)
	if *paper {
		sc = bench.PaperScale()
	}
	fmt.Printf("scale: %d objects, %d queries, %.0f ts, %.0f m domain, %d buffer pages\n\n",
		sc.Objects, sc.Queries, sc.Duration, sc.DomainSide, sc.Buffer)

	// -exp all runs several JSON-emitting experiments; an explicit -out
	// would make them clobber each other, so it only applies to a single
	// -exp and everything falls back to the per-experiment default.
	outFor := func(def string) string {
		if *out != "" && *exp != "all" {
			return *out
		}
		return def
	}
	run := func(name string) error {
		switch name {
		case "store":
			return runStore(workload.Dataset(*dataset), sc, *seed)
		case "concurrency":
			return runConcurrency(workload.Dataset(*dataset), sc, *seed, *procs, *latency, outFor("BENCH_concurrency.json"))
		case "scan":
			return runScan(workload.Dataset(*dataset), sc, *seed, *procs, *latency, outFor("BENCH_scan.json"))
		case "drift":
			return runDrift(sc, *seed, outFor("BENCH_drift.json"))
		case "partition":
			return runPartition(sc, *seed, outFor("BENCH_partition.json"))
		case "monitor":
			return runMonitor(workload.Dataset(*dataset), sc, *seed, *procs, *subs, outFor("BENCH_monitor.json"))
		case "durability":
			return runDurability(workload.Dataset(*dataset), sc, *seed, *procs, outFor("BENCH_durability.json"))
		case "ingest":
			return runIngest(workload.Dataset(*dataset), sc, *seed, *procs, outFor("BENCH_ingest.json"))
		case "checkpoint":
			return runCheckpoint(workload.Dataset(*dataset), sc, *seed, *procs, outFor("BENCH_checkpoint.json"))
		case "faults":
			return runFaults(workload.Dataset(*dataset), sc, *seed, *procs, outFor("BENCH_faults.json"))
		case "dva":
			tab, err := bench.RunDVADump(workload.Dataset(*dataset), sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig7":
			pts, tab, err := bench.RunFig7(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
			if *points != "" {
				if err := writePoints(*points, pts); err != nil {
					return err
				}
				fmt.Printf("wrote %d scatter points to %s\n", len(pts), *points)
			}
		case "fig17":
			for _, ds := range []workload.Dataset{workload.Chicago, workload.SanFrancisco} {
				tab, err := bench.RunFig17(ds, sc, *seed)
				if err != nil {
					return err
				}
				fmt.Println(tab.Format())
			}
		case "fig18":
			tab, err := bench.RunFig18(sc, *seed, 5)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig19":
			tab, err := bench.RunFig19(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig20":
			sizes := []int{sc.Objects, sc.Objects * 2, sc.Objects * 3, sc.Objects * 4, sc.Objects * 5}
			tab, err := bench.RunFig20(sizes, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig21":
			tab, err := bench.RunFig21([]float64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig22":
			tab, err := bench.RunFig22([]float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig23":
			tab, err := bench.RunFig23([]float64{20, 40, 60, 80, 100, 120}, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		case "fig24":
			tab, err := bench.RunFig24([]float64{20, 40, 60, 80, 100, 120}, sc, *seed)
			if err != nil {
				return err
			}
			fmt.Println(tab.Format())
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"store", "concurrency", "scan", "drift", "partition", "monitor", "durability", "ingest", "checkpoint", "faults", "dva", "fig7", "fig17", "fig18", "fig19",
			"fig20", "fig21", "fig22", "fig23", "fig24"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}

// runStore exercises the production Store facade end to end: open with
// online auto-partitioning (no upfront sample), batch-load the initial
// population into the staging index, stream ID-keyed location reports until
// the bootstrap cuts over to the velocity partitions, and interleave range
// queries — reporting throughput and per-query I/O on both sides of the
// cutover.
func runStore(ds workload.Dataset, sc bench.Scale, seed int64) error {
	p := workload.DefaultParams(ds, sc.Objects)
	p.Domain = vpindex.R(0, 0, sc.DomainSide, sc.DomainSide)
	p.Duration = sc.Duration
	p.Seed = seed
	gen, err := workload.NewGenerator(p)
	if err != nil {
		return err
	}

	// Cutover lands mid-stream: initial load stays staging, then reports
	// push the sample over the threshold.
	threshold := sc.Objects + sc.Objects/2
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(p.Domain),
		vpindex.WithBufferPages(sc.Buffer),
		vpindex.WithMaxUpdateInterval(p.Duration),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithAutoPartition(threshold),
		vpindex.WithTauRefreshInterval(10_000),
		vpindex.WithSeed(seed),
	)
	if err != nil {
		return err
	}

	loadStart := time.Now()
	if err := store.ReportBatch(gen.Initial()); err != nil {
		return err
	}
	loadDur := time.Since(loadStart)
	fmt.Printf("store: batch-loaded %d objects into bx (partitioned=%v) in %v (%.0f reports/s)\n",
		store.Len(), store.Partitioned(), loadDur.Round(time.Millisecond),
		float64(store.Len())/loadDur.Seconds())

	queries := gen.Queries(sc.Queries)
	qi := 0
	var qIOStaging, qStaging, qIOPart, qPart int64
	runDue := func(now float64) error {
		for qi < len(queries) && queries[qi].Now <= now {
			before := store.Stats().Reads
			if _, err := store.Search(queries[qi]); err != nil {
				return err
			}
			if store.Partitioned() {
				qIOPart += store.Stats().Reads - before
				qPart++
			} else {
				qIOStaging += store.Stats().Reads - before
				qStaging++
			}
			qi++
		}
		return nil
	}

	reports := 0
	streamStart := time.Now()
	cutover := time.Duration(0)
	for {
		ev, ok := gen.NextUpdate()
		if !ok {
			break
		}
		if err := store.Report(ev.New); err != nil {
			return err
		}
		reports++
		if cutover == 0 && store.Partitioned() {
			cutover = time.Since(streamStart)
			an, _ := store.Analysis()
			fmt.Printf("store: bootstrap after %d streamed reports (t=%.1f): analyzed %d velocities, %d partitions, %d objects migrated\n",
				reports, ev.T, an.SampleSize, len(store.Partitions()), store.Len())
		}
		if err := runDue(ev.T); err != nil {
			return err
		}
	}
	if err := runDue(p.Duration + 1); err != nil {
		return err
	}
	streamDur := time.Since(streamStart)
	fmt.Printf("store: streamed %d reports in %v (%.0f reports/s)\n",
		reports, streamDur.Round(time.Millisecond), float64(reports)/streamDur.Seconds())
	if qStaging > 0 {
		fmt.Printf("store: staging queries      %4d, avg I/O %6.1f\n",
			qStaging, float64(qIOStaging)/float64(qStaging))
	}
	if qPart > 0 {
		fmt.Printf("store: partitioned queries %4d, avg I/O %6.1f\n",
			qPart, float64(qIOPart)/float64(qPart))
	}
	st := store.Stats()
	fmt.Printf("store: total simulated I/O: %d reads / %d writes / %d hits\n\n",
		st.Reads, st.Writes, st.Hits)
	return nil
}

// concurrencyResult is one (shards, workload) measurement of the
// concurrency experiment.
type concurrencyResult struct {
	Shards     int     `json:"shards"`
	Workload   string  `json:"workload"` // "mixed" or "search"
	Goroutines int     `json:"goroutines"`
	Ops        int     `json:"ops"`
	Seconds    float64 `json:"seconds"`
	OpsPerSec  float64 `json:"ops_per_sec"`
}

// concurrencyReport is the BENCH_concurrency.json schema: the repo's
// perf-trajectory datapoint for the sharded Store.
type concurrencyReport struct {
	Experiment    string              `json:"experiment"`
	Dataset       string              `json:"dataset"`
	Objects       int                 `json:"objects"`
	BufferPages   int                 `json:"buffer_pages"`
	DiskLatencyUS float64             `json:"disk_latency_us"`
	GoMaxProcs    int                 `json:"gomaxprocs"`
	Results       []concurrencyResult `json:"results"`
	SpeedupMixed  float64             `json:"speedup_mixed"`
	SpeedupSearch float64             `json:"speedup_search"`
}

// runConcurrency measures the sharded Store against the single-lock
// baseline under a concurrent workload: G goroutines streaming a 7:1 mix of
// ID-keyed reports and predictive range queries (plus a search-only phase),
// against a velocity-partitioned Bx Store with simulated per-page disk
// latency. The Store's performance model is disk-bound, so the scaling win
// is overlap: a single lock serializes every simulated page wait, shards
// overlap them. Results go to stdout and to the JSON report at outPath.
func runConcurrency(ds workload.Dataset, sc bench.Scale, seed int64, procs int, latency time.Duration, outPath string) error {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
		if procs < 8 {
			procs = 8
		}
	}
	// Let the scheduler actually run the workers concurrently even on small
	// containers; restored afterwards.
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
	// (each of the shards × 3 pools gets an equal slice) so the comparison
	// isolates lock overlap instead of also handing the sharded store a
	// bigger cache. The budget must cover at least one page per pool.
	totalPages := sc.Buffer
	if min := procs * 3; totalPages < min {
		totalPages = min
	}
	rep := concurrencyReport{
		Experiment:    "concurrency",
		Dataset:       string(ds),
		Objects:       len(objs),
		BufferPages:   totalPages,
		DiskLatencyUS: float64(latency) / float64(time.Microsecond),
		GoMaxProcs:    procs,
	}
	totalOps := 3 * len(objs)
	searchOps := totalOps / 8

	tput := map[string]map[int]float64{"mixed": {}, "search": {}}
	for _, shards := range []int{1, procs} {
		store, err := vpindex.Open(
			vpindex.WithKind(vpindex.Bx),
			vpindex.WithDomain(p.Domain),
			vpindex.WithShards(shards),
			vpindex.WithBufferPages(totalPages/(shards*3)),
			vpindex.WithDiskLatency(latency),
			vpindex.WithMaxUpdateInterval(p.Duration),
			vpindex.WithVelocityPartitioning(2),
			vpindex.WithVelocitySample(sample),
			vpindex.WithSeed(seed),
		)
		if err != nil {
			return err
		}
		if err := store.ReportBatch(objs); err != nil {
			return err
		}
		for _, wl := range []string{"mixed", "search"} {
			ops := totalOps
			if wl == "search" {
				ops = searchOps
			}
			ran, seconds, err := hammerStore(store, objs, wl, procs, ops, seed)
			if err != nil {
				return err
			}
			r := concurrencyResult{
				Shards:     shards,
				Workload:   wl,
				Goroutines: procs,
				Ops:        ran,
				Seconds:    seconds,
				OpsPerSec:  float64(ran) / seconds,
			}
			tput[wl][shards] = r.OpsPerSec
			rep.Results = append(rep.Results, r)
			fmt.Printf("concurrency: shards=%-3d %-6s %7d ops, %8.3fs, %9.0f ops/s\n",
				shards, wl, ops, seconds, r.OpsPerSec)
		}
	}
	rep.SpeedupMixed = tput["mixed"][procs] / tput["mixed"][1]
	rep.SpeedupSearch = tput["search"][procs] / tput["search"][1]
	fmt.Printf("concurrency: speedup over single lock: mixed %.2fx, search %.2fx\n\n",
		rep.SpeedupMixed, rep.SpeedupSearch)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("concurrency: wrote %s\n\n", outPath)
	return nil
}

// hammerStore runs ~ops operations of the given workload kind ("mixed" or
// "search") across g goroutines, returning the count actually executed
// (ops rounded to a whole number per goroutine, at least one each) and the
// wall-clock seconds.
func hammerStore(store *vpindex.Store, objs []vpindex.Object, kind string, g, ops int, seed int64) (int, float64, error) {
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
	side := 0.0
	for _, o := range objs {
		if o.Pos.X > side {
			side = o.Pos.X
		}
		if o.Pos.Y > side {
			side = o.Pos.Y
		}
	}
	per := ops / g
	if per < 1 {
		per = 1
	}
	start := time.Now()
	wg.Add(g)
	for w := 0; w < g; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*1000))
			for i := 0; i < per; i++ {
				if kind == "search" || rng.Intn(8) == 0 {
					c := vpindex.V(rng.Float64()*side, rng.Float64()*side)
					if _, err := store.Search(vpindex.SliceQuery(vpindex.Circle{C: c, R: side / 40}, 0, 60)); err != nil {
						fail(err)
						return
					}
					continue
				}
				o := objs[rng.Intn(len(objs))]
				o.Pos = vpindex.V(rng.Float64()*side, rng.Float64()*side)
				if err := store.Report(o); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return per * g, time.Since(start).Seconds(), firstE
}

// driftWindow is one (store, window) query-I/O measurement of the drift
// experiment.
type driftWindow struct {
	Store       string  `json:"store"`  // "adaptive" or "frozen"
	Window      string  `json:"window"` // "pre", "post" (drifted, before swap), "tail"
	Queries     int     `json:"queries"`
	IOPerSearch float64 `json:"io_per_search"`
}

// driftReport is the BENCH_drift.json schema: the adaptive-repartitioning
// datapoint of the repo's perf trajectory.
type driftReport struct {
	Experiment        string        `json:"experiment"`
	Objects           int           `json:"objects"`
	Reports           int           `json:"reports"`
	Duration          float64       `json:"duration_ts"`
	SwitchT           float64       `json:"switch_ts"`
	AngleDeltaDeg     float64       `json:"angle_delta_deg"`
	Repartitions      int64         `json:"repartitions"`
	SwapObserved      bool          `json:"swap_observed"`
	Windows           []driftWindow `json:"windows"`
	AdaptiveRecovery  float64       `json:"adaptive_recovery_ratio"`  // tail / pre
	FrozenDegradation float64       `json:"frozen_degradation_ratio"` // tail / pre
}

// runDrift measures adaptive repartitioning against a frozen-partition
// baseline. Both stores are velocity-partitioned Bx indexes built from the
// same phase-0 sample; the workload's dominant travel direction rotates
// 45° at half-run (internal/workload.DriftGenerator) — the worst case for
// a two-axis grid, whose axes repeat every 90° — after which the
// frozen store's routing sends everything to its outlier partition while
// the adaptive store's drift policy re-analyzes its recent-velocity
// reservoir and swaps in partitions aligned with the new axis. Query I/O
// per search is sampled in three windows — pre-drift, post-drift before the
// swap, and a tail after the stream (with a warm-up discard, identical for
// both stores) — and the recovery/degradation ratios go to stdout and to
// the JSON report at outPath.
func runDrift(sc bench.Scale, seed int64, outPath string) error {
	// Speeds scale with the domain side so the ratio of velocity expansion
	// to domain size — what determines how much partition alignment matters
	// — is the same at every -objects scale.
	speed := sc.DomainSide * 0.003
	p := workload.DriftParams{
		NumObjects:     sc.Objects,
		Domain:         vpindex.R(0, 0, sc.DomainSide, sc.DomainSide),
		MeanSpeed:      speed,
		SpeedJitter:    speed * 2 / 3,
		PerpJitter:     speed / 20,
		Axes:           2,           // perpendicular road grid, the paper's k=2
		Angle0:         0,           // {0°, 90°} before the switch
		Angle1:         math.Pi / 4, // {45°, 135°} after: worst-case drift
		SwitchT:        sc.Duration / 2,
		Duration:       sc.Duration,
		UpdateInterval: sc.Duration / 8,
		Seed:           seed,
	}
	gen, err := workload.NewDriftGenerator(p)
	if err != nil {
		return err
	}
	sample := gen.VelocitySample(min(sc.Objects, 10_000))

	open := func(adaptive bool) (*vpindex.Store, error) {
		opts := []vpindex.Option{
			vpindex.WithKind(vpindex.Bx),
			vpindex.WithDomain(p.Domain),
			vpindex.WithBufferPages(sc.Buffer),
			vpindex.WithMaxUpdateInterval(p.UpdateInterval),
			vpindex.WithVelocityPartitioning(2),
			vpindex.WithVelocitySample(sample),
			vpindex.WithSeed(seed),
		}
		if adaptive {
			// Re-check once per report round; the reservoir spans one round,
			// so it is fully phase-1 one round after the switch.
			opts = append(opts,
				vpindex.WithRepartitionPolicy(vpindex.RepartitionPolicy{
					Every:          sc.Objects,
					DriftThreshold: 0.3,
					ReservoirSize:  sc.Objects,
				}))
		}
		return vpindex.Open(opts...)
	}
	adaptive, err := open(true)
	if err != nil {
		return err
	}
	frozen, err := open(false)
	if err != nil {
		return err
	}
	if err := adaptive.ReportBatch(gen.Initial()); err != nil {
		return err
	}
	if err := frozen.ReportBatch(gen.Initial()); err != nil {
		return err
	}

	// Per-store, per-window I/O accumulators. A query lands in "pre" before
	// the switch and in "post" after it; the adaptive store's post window
	// closes once its swap is observed (later in-stream queries are dropped
	// — the tail window re-measures both stores cleanly at the end).
	type acc struct{ io, n int64 }
	sum := map[string]map[string]*acc{}
	for _, st := range []string{"adaptive", "frozen"} {
		sum[st] = map[string]*acc{"pre": {}, "post": {}, "tail": {}}
	}
	// The driver is single-threaded, so the only thing that can touch the
	// counters during a Search is the adaptive store's background swap,
	// whose InsertBulk migration reads pages and would be attributed to the
	// query. A measurement is clean only if no swap was in flight on either
	// side of the query and no swap started or finished across it —
	// otherwise run the query but drop the sample.
	measure := func(name string, s *vpindex.Store, q vpindex.RangeQuery, window string) error {
		before := s.Stats()
		if _, err := s.Search(q); err != nil {
			return err
		}
		if window == "" {
			return nil
		}
		after := s.Stats()
		if before.SwapInFlight || after.SwapInFlight ||
			after.PartitionEpoch != before.PartitionEpoch ||
			after.Repartitions != before.Repartitions {
			return nil
		}
		a := sum[name][window]
		a.io += after.Reads - before.Reads
		a.n++
		return nil
	}

	// Predictive horizon at the paper's default ratio (60 ts on a 120 ts
	// update interval): long enough that velocity expansion dominates query
	// I/O, which is exactly what partition alignment buys back.
	radius := sc.DomainSide / 40
	predictive := p.UpdateInterval * 4
	queries := gen.DriftQueries(sc.Queries, 0, p.Duration, radius, predictive, seed+13)
	qi, reports := 0, 0
	swapAt := -1
	for {
		o, ok := gen.Next()
		if !ok {
			break
		}
		if err := adaptive.Report(o); err != nil {
			return err
		}
		if err := frozen.Report(o); err != nil {
			return err
		}
		reports++
		if swapAt < 0 && adaptive.Stats().Repartitions > 0 {
			swapAt = reports
			fmt.Printf("drift: adaptive store repartitioned after %d reports (t=%.1f, switch at t=%.1f)\n",
				reports, o.T, p.SwitchT)
		}
		for qi < len(queries) && queries[qi].Now <= o.T {
			q := queries[qi]
			qi++
			// "pre" is the steady-state pre-drift level: the second half of
			// phase 0, after the trees have matured under churn (a TPR*'s
			// I/O right after load is unrepresentatively low).
			window := ""
			switch {
			case q.Now >= p.SwitchT:
				window = "post"
			case q.Now >= p.SwitchT/2:
				window = "pre"
			}
			aw := window
			if aw == "post" && swapAt >= 0 {
				aw = "" // between swap and tail: not a clean window
			}
			if err := measure("adaptive", adaptive, q, aw); err != nil {
				return err
			}
			if err := measure("frozen", frozen, q, window); err != nil {
				return err
			}
		}
	}

	// Give the last background drift check a moment to land, then measure
	// the tail window at the end of the run: 2x the query budget, first
	// half discarded as page-cache warm-up for both stores alike.
	for w := 0; w < 500 && adaptive.Stats().Repartitions == 0; w++ {
		time.Sleep(10 * time.Millisecond)
	}
	// All tail queries are issued at the stream-end instant, so the time
	// since each object's last report matches the in-stream windows and the
	// comparison isolates partition alignment, not record staleness.
	tail := gen.DriftQueries(2*sc.Queries, p.Duration, p.Duration, radius, predictive, seed+17)
	for i, q := range tail {
		window := "tail"
		if i < len(tail)/2 {
			window = ""
		}
		if err := measure("adaptive", adaptive, q, window); err != nil {
			return err
		}
		if err := measure("frozen", frozen, q, window); err != nil {
			return err
		}
	}

	rep := driftReport{
		Experiment:    "drift",
		Objects:       sc.Objects,
		Reports:       reports,
		Duration:      p.Duration,
		SwitchT:       p.SwitchT,
		AngleDeltaDeg: (p.Angle1 - p.Angle0) * 180 / math.Pi,
		Repartitions:  adaptive.Stats().Repartitions,
		SwapObserved:  adaptive.Stats().Repartitions > 0,
	}
	perSearch := func(st, w string) float64 {
		a := sum[st][w]
		if a.n == 0 {
			return 0
		}
		return float64(a.io) / float64(a.n)
	}
	for _, st := range []string{"adaptive", "frozen"} {
		for _, w := range []string{"pre", "post", "tail"} {
			rep.Windows = append(rep.Windows, driftWindow{
				Store: st, Window: w,
				Queries:     int(sum[st][w].n),
				IOPerSearch: perSearch(st, w),
			})
			fmt.Printf("drift: %-8s %-4s  %4d queries, avg I/O %7.1f\n",
				st, w, sum[st][w].n, perSearch(st, w))
		}
	}
	if pre := perSearch("adaptive", "pre"); pre > 0 {
		rep.AdaptiveRecovery = perSearch("adaptive", "tail") / pre
	}
	if pre := perSearch("frozen", "pre"); pre > 0 {
		rep.FrozenDegradation = perSearch("frozen", "tail") / pre
	}
	fmt.Printf("drift: adaptive recovery %.2fx of pre-drift I/O; frozen baseline at %.2fx\n\n",
		rep.AdaptiveRecovery, rep.FrozenDegradation)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("drift: wrote %s\n\n", outPath)
	return nil
}

func writePoints(path string, pts []bench.ExpansionPoint) error {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%g,%g\n", p.Series, p.X, p.Y)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
