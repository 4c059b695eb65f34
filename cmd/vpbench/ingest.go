package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	vpindex "repro"
	"repro/internal/bench"
	"repro/internal/hist"
	"repro/internal/workload"
)

// ingestCell is one point of the ingest matrix: a writer count × durability
// combination hammered with single-record Reports.
type ingestCell struct {
	Durable   bool    `json:"durable"`
	Writers   int     `json:"writers"`
	Ops       int64   `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	MeanUsec  float64 `json:"mean_usec"`
	P50Usec   float64 `json:"p50_usec"`
	P99Usec   float64 `json:"p99_usec"`
	P999Usec  float64 `json:"p999_usec"`
}

// ingestReport is the BENCH_ingest.json schema. NumCPU sits next to
// GoMaxProcs because the experiment raises GOMAXPROCS to at least 8: on a
// smaller box the writers are time-sliced over fewer cores than the
// scheduler is told about.
type ingestReport struct {
	Experiment      string       `json:"experiment"`
	Dataset         string       `json:"dataset"`
	Objects         int          `json:"objects"`
	NumCPU          int          `json:"nproc"`
	GoMaxProcs      int          `json:"gomaxprocs"`
	GroupWindowUsec int64        `json:"group_window_usec"`
	Cells           []ingestCell `json:"cells"`
}

// runIngest measures sustained single-record Report throughput and latency:
// concurrent writers issue synchronous Reports (the telemetry firehose shape
// — many producers, one record each) for a fixed wall-clock slice, on an
// in-memory store and on a durable group-commit store. On the durable side
// the concurrent writers share fsyncs through the WAL's group commit.
func runIngest(ds workload.Dataset, sc bench.Scale, seed int64, procs int, outPath string) error {
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

	// Every cell runs cellReps times and reports the median by throughput:
	// single-digit-core CI boxes time-slice the writer pool, and one noisy
	// neighbor or GC stall in a 2-second slice otherwise lands in the
	// committed artifact.
	const (
		groupWindow = 200 * time.Microsecond
		cellTime    = 2 * time.Second
		cellReps    = 3
	)

	open := func(durable bool) (*vpindex.Store, func(), error) {
		opts := []vpindex.Option{
			vpindex.WithKind(vpindex.Bx),
			vpindex.WithDomain(p.Domain),
			vpindex.WithShards(runtime.GOMAXPROCS(0)),
			// A write-path experiment wants the page cache out of the way:
			// at the default scale-derived budget (a handful of pages) every
			// report evicts, and that CPU noise drowns the pipeline effects
			// under measurement.
			vpindex.WithBufferPages(256),
			vpindex.WithDiskLatency(0),
			vpindex.WithVelocityPartitioning(2),
			vpindex.WithVelocitySample(sample),
			vpindex.WithSeed(seed),
		}
		cleanup := func() {}
		if durable {
			dir, err := os.MkdirTemp("", "vpingest-*")
			if err != nil {
				return nil, nil, err
			}
			cleanup = func() { os.RemoveAll(dir) }
			opts = append(opts,
				vpindex.WithDataDir(dir),
				vpindex.WithSyncPolicy(vpindex.SyncGroupCommit(groupWindow)),
			)
		}
		store, err := vpindex.Open(opts...)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		if err := store.ReportBatch(objs); err != nil {
			store.Close()
			cleanup()
			return nil, nil, err
		}
		return store, cleanup, nil
	}

	runCell := func(durable bool, writers int) (ingestCell, error) {
		store, cleanup, err := open(durable)
		if err != nil {
			return ingestCell{}, err
		}
		defer cleanup()
		var (
			wg     sync.WaitGroup
			stop   atomic.Bool
			total  atomic.Int64
			firstE atomic.Value
			h      hist.Histogram
		)
		start := time.Now()
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(w)*7919))
				n := int64(0)
				for !stop.Load() {
					o := objs[rng.Intn(len(objs))]
					o.Pos.X += rng.Float64() - 0.5
					o.Pos.Y += rng.Float64() - 0.5
					t0 := time.Now()
					if err := store.Report(o); err != nil {
						firstE.CompareAndSwap(nil, err)
						break
					}
					h.Observe(time.Since(t0))
					n++
				}
				total.Add(n)
			}(w)
		}
		time.Sleep(cellTime)
		stop.Store(true)
		wg.Wait()
		seconds := time.Since(start).Seconds()
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if e, ok := firstE.Load().(error); ok {
			return ingestCell{}, e
		}
		if err != nil {
			return ingestCell{}, err
		}
		p50, p99, p999 := h.Percentiles()
		return ingestCell{
			Durable:   durable,
			Writers:   writers,
			Ops:       total.Load(),
			Seconds:   seconds,
			OpsPerSec: float64(total.Load()) / seconds,
			MeanUsec:  float64(h.Mean().Nanoseconds()) / 1e3,
			P50Usec:   float64(p50.Nanoseconds()) / 1e3,
			P99Usec:   float64(p99.Nanoseconds()) / 1e3,
			P999Usec:  float64(p999.Nanoseconds()) / 1e3,
		}, nil
	}

	// medianCell picks the median repetition by throughput.
	medianCell := func(durable bool, writers int) (ingestCell, error) {
		cells := make([]ingestCell, 0, cellReps)
		for r := 0; r < cellReps; r++ {
			cell, err := runCell(durable, writers)
			if err != nil {
				return ingestCell{}, err
			}
			cells = append(cells, cell)
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].OpsPerSec < cells[j].OpsPerSec })
		return cells[len(cells)/2], nil
	}

	rep := ingestReport{
		Experiment:      "ingest",
		Dataset:         string(ds),
		Objects:         len(objs),
		NumCPU:          runtime.NumCPU(),
		GoMaxProcs:      procs,
		GroupWindowUsec: groupWindow.Microseconds(),
	}
	fmt.Printf("ingest: single-record Reports, %v per cell, group window %v, nproc %d, gomaxprocs %d\n\n",
		cellTime, groupWindow, rep.NumCPU, procs)
	for _, durable := range []bool{false, true} {
		for _, writers := range []int{1, 4, 16, 64} {
			cell, err := medianCell(durable, writers)
			if err != nil {
				return err
			}
			rep.Cells = append(rep.Cells, cell)
			fmt.Printf("  durable=%-5v writers=%-3d %9.0f reports/s  p50 %6.0fµs p99 %6.0fµs p999 %6.0fµs\n",
				durable, writers, cell.OpsPerSec, cell.P50Usec, cell.P99Usec, cell.P999Usec)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", outPath)
	return nil
}
