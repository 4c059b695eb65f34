package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	vpindex "repro"
	"repro/internal/bench"
	"repro/internal/workload"
)

// monitorResult is the throughput measurement of the continuous-query
// experiment.
type monitorResult struct {
	Goroutines    int     `json:"goroutines"`
	Ops           int     `json:"ops"`
	Seconds       float64 `json:"seconds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	Events        int64   `json:"events"`
	DroppedEvents int64   `json:"dropped_events"`
}

// monitorReport is the BENCH_monitor.json schema: the continuous-query
// datapoint of the repo's perf trajectory — mixed report throughput at K
// standing subscriptions served by the Store's subscription engine. (The
// committed BENCH_monitor.json predates this schema: it also records the
// removed single-lock wrapper as a baseline and their speedup ratio.)
type monitorReport struct {
	Experiment    string          `json:"experiment"`
	Dataset       string          `json:"dataset"`
	Objects       int             `json:"objects"`
	Subscriptions int             `json:"subscriptions"`
	GoMaxProcs    int             `json:"gomaxprocs"`
	Results       []monitorResult `json:"results"`
}

// runMonitor measures continuous-query serving under a concurrent mixed
// workload (7:1 ID-keyed reports to predictive range searches) with K
// standing subscriptions registered on a velocity-partitioned Bx Store:
// reports go through store.Report — evaluation sharded like the write path,
// and the velocity-class spatial filter reducing each report to the
// subscriptions it could actually affect — while a consumer goroutine
// drains the async Events() stream. Results go to stdout and to the JSON
// report at outPath.
func runMonitor(ds workload.Dataset, sc bench.Scale, seed int64, procs, subsN int, outPath string) error {
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

	// The subscription population: fences spread over the domain, each
	// watching a predictive horizon — the workload of a zone-alerting
	// service with subsN standing zones.
	subRng := rand.New(rand.NewSource(seed + 99))
	mkSub := func() vpindex.Subscription {
		return vpindex.Subscription{
			Query: vpindex.SliceQuery(vpindex.Circle{
				C: vpindex.V(subRng.Float64()*sc.DomainSide, subRng.Float64()*sc.DomainSide),
				R: sc.DomainSide / 50,
			}, 0, 0),
			Horizon: 30,
		}
	}
	subsList := make([]vpindex.Subscription, subsN)
	for i := range subsList {
		subsList[i] = mkSub()
	}

	// This experiment isolates the continuous-query evaluation on top of
	// the index cost, so the page cache is sized generously — a thrashing
	// 10-page pool would just dilute the quantity being measured under
	// simulated I/O that the concurrency experiment already covers.
	buffer := sc.Buffer
	if buffer < 64 {
		buffer = 64
	}
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(p.Domain),
		vpindex.WithShards(procs),
		vpindex.WithBufferPages(buffer),
		vpindex.WithMaxUpdateInterval(p.Duration),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(sample),
		vpindex.WithSeed(seed),
		vpindex.WithEventBuffer(8192, vpindex.DropOldest),
	)
	if err != nil {
		return err
	}
	if err := store.ReportBatch(objs); err != nil {
		return err
	}

	var (
		events  atomic.Int64
		stop    = make(chan struct{})
		drained sync.WaitGroup
	)
	ch := store.Events()
	drained.Add(1)
	go func() {
		defer drained.Done()
		for {
			select {
			case <-ch:
				events.Add(1)
			case <-stop:
				return
			}
		}
	}()
	for _, s := range subsList {
		if _, _, err := store.Subscribe(s, 0); err != nil {
			return err
		}
	}
	ran, seconds, err := hammerMonitor(store, objs, procs, 2*len(objs), seed)
	close(stop)
	drained.Wait()
	if err != nil {
		return err
	}
	// Count whatever was still buffered when the consumer stopped.
	for len(ch) > 0 {
		<-ch
		events.Add(1)
	}
	r := monitorResult{
		Goroutines:    procs,
		Ops:           ran,
		Seconds:       seconds,
		OpsPerSec:     float64(ran) / seconds,
		Events:        events.Load(),
		DroppedEvents: store.DroppedEvents(),
	}
	rep := monitorReport{
		Experiment:    "monitor",
		Dataset:       string(ds),
		Objects:       len(objs),
		Subscriptions: subsN,
		GoMaxProcs:    procs,
		Results:       []monitorResult{r},
	}
	fmt.Printf("monitor: %d subs, %7d ops, %8.3fs, %9.0f ops/s, %7d events\n\n",
		subsN, ran, seconds, r.OpsPerSec, r.Events)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("monitor: wrote %s\n\n", outPath)
	return nil
}

// hammerMonitor runs ~ops operations of the 7:1 report:search mix across g
// goroutines.
func hammerMonitor(store *vpindex.Store, objs []vpindex.Object, g, ops int, seed int64) (int, float64, error) {
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
				if rng.Intn(8) == 0 {
					// The one-shot queries a zone-alert service interleaves
					// with its report stream: small "who is near this point
					// soon" probes (the standing zones themselves are served
					// by the subscriptions, not by ad-hoc searches).
					c := vpindex.V(rng.Float64()*side, rng.Float64()*side)
					if _, err := store.Search(vpindex.SliceQuery(vpindex.Circle{C: c, R: side / 100}, 0, 30)); err != nil {
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
