package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	runmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	vpindex "repro"
	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/storage"
)

// config is one invocation's scale and mode.
type config struct {
	objects int
	seconds float64
	seed    int64
	trace   bool
	setups  int    // set-ups timed in an untraced run; setup_s is their median
	workDir string // data directories and the trace file go here
}

// metric is one named measurement.
type metric struct {
	name, unit string
	value      float64
}

// result is what a run reports.
type result struct {
	attempted, failed int64
	metrics           []metric
	notes             []string
}

func (res *result) add(name, unit string, v float64) {
	res.metrics = append(res.metrics, metric{name, unit, v})
}

// client is the closed-loop client: its op stream, how far it got, and
// what it measured.
type client struct {
	ops []op
	pos int

	lat [numKinds][]int64 // untraced latencies, ns
	// marks[w][k] is len(lat[k]) when window w of the phase began.
	marks    [][numKinds]int
	attempts int64
	failures map[int]error // op index -> error
	reports  int           // acknowledged reports, for the checkpoint cadence

	ckptNs, ckptPause, ckptBytes []float64
	ranOut                       bool // the stream ended before the deadline

	storeNs, storeN [numKinds]int64 // traced Store verb time
}

// run is one workload execution.
type run struct {
	sp      spec
	cfg     config
	fl      *fleet
	c       *client
	store   *vpindex.Store
	dir     string // data dir of the measured Store (durable)
	drain   *drainer
	subs    map[monitor.SubscriptionID]monitor.Subscription
	res     result
	extraOK int64 // correctness checks attempted beyond client ops
	extraKO int64 // ... and failed

	// traced phase
	rep    *replica
	acc    layerAcc
	nextOp int64
}

func runWorkload(sp spec, cfg config) (*result, error) {
	total := int(math.Ceil(float64(sp.opsPerSec) * cfg.seconds))
	fl, err := newFleet(sp, cfg.objects, total, 1, cfg.seed)
	if err != nil {
		return nil, err
	}
	// The generator's per-object state is garbage now; give it back.
	debug.FreeOSMemory()
	c := &client{ops: fl.streams[0], failures: map[int]error{}}
	var n [numKinds]int
	for _, o := range c.ops {
		n[o.kind]++
	}
	for k := range c.lat {
		c.lat[k] = make([]int64, 0, n[k])
	}
	r := &run{sp: sp, cfg: cfg, fl: fl, c: c}
	defer r.cleanup()

	// Set up several times and measure the last Store.
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	var heapBase uint64
	for i := 0; i < setups; i++ {
		last := i == setups-1
		if last {
			heapBase = heapInuse()
		}
		dir := ""
		if sp.durable {
			dir = filepath.Join(cfg.workDir, fmt.Sprintf("store-%d", i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		s, d, subs, took, err := r.setUp(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, took.Seconds())
		if !last {
			d.stop()
			if err := s.Close(); err != nil {
				return nil, err
			}
			if dir != "" {
				if err := os.RemoveAll(dir); err != nil {
					return nil, err
				}
			}
			continue
		}
		r.store, r.drain, r.subs, r.dir = s, d, subs, dir
	}
	if err := refuseDiskLatency(r.store); err != nil {
		return nil, err
	}

	// Phase A: untraced. In a traced run it takes half the time (or ops)
	// and feeds the runtime and durability metrics; phase B is traced.
	phaseA := r.measure(cfg.trace)
	if cfg.trace {
		r.layerMetricsA(phaseA)
	} else {
		r.endToEnd(phaseA, setupS, heapBase)
	}
	if sp.durable {
		if err := r.reopen(); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		if err := r.traced(); err != nil {
			return nil, err
		}
	}
	r.verify()

	if c.ranOut {
		r.res.notes = append(r.res.notes, fmt.Sprintf("the client used up its %d pre-generated ops before the deadline; raise opsPerSec", len(c.ops)))
	}
	r.res.attempted += c.attempts
	r.res.failed += int64(len(c.failures))
	shown := 0
	for i, err := range c.failures {
		if shown++; shown > 5 {
			break
		}
		r.res.notes = append(r.res.notes, fmt.Sprintf("op %d: %v", i, err))
	}
	r.res.attempted += r.extraOK
	r.res.failed += r.extraKO
	return &r.res, nil
}

func (r *run) cleanup() {
	if r.drain != nil {
		r.drain.stop()
	}
	if r.rep != nil {
		r.rep.close()
	}
	if r.store != nil {
		r.store.Close()
	}
}

// wholeIndexPages is the per-pool capacity that holds a whole index: a
// 50,000-object index is about 900 pages, so objects/16 leaves each pool
// several times the largest partition's share.
func wholeIndexPages(objects int) int { return max(64, objects/16) }

// storeOptions are the Store's defaults plus the workload's named settings.
func (r *run) storeOptions(dir string) []vpindex.Option {
	opts := []vpindex.Option{vpindex.WithVelocityPartitioning(2)}
	if r.cfg.objects < vpindex.DefaultAutoPartitionSample {
		// Test-scale fleets are smaller than the default bootstrap sample.
		opts = append(opts, vpindex.WithAutoPartition(r.cfg.objects/2))
	}
	if r.sp.wholeIndexPool {
		opts = append(opts, vpindex.WithBufferPages(wholeIndexPages(r.cfg.objects)))
	}
	if dir != "" {
		// Per-write fsyncs on this class of machine (a shared virtual disk)
		// swing fivefold second to second, which no run length averages
		// out; the log, page file, checkpoints and recovery still run.
		opts = append(opts, vpindex.WithDataDir(dir), vpindex.WithSyncPolicy(vpindex.SyncNone()))
	}
	return opts
}

// setUp opens a Store, bulk-loads the fleet, registers the subscriptions,
// and waits for the bootstrap cutover to finish.
func (r *run) setUp(dir string) (*vpindex.Store, *drainer, map[monitor.SubscriptionID]monitor.Subscription, time.Duration, error) {
	start := time.Now()
	s, err := vpindex.Open(r.storeOptions(dir)...)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	fail := func(err error) (*vpindex.Store, *drainer, map[monitor.SubscriptionID]monitor.Subscription, time.Duration, error) {
		s.Close()
		return nil, nil, nil, 0, err
	}
	if err := s.ReportBatch(r.fl.initial); err != nil {
		return fail(err)
	}
	var d *drainer
	subs := map[monitor.SubscriptionID]monitor.Subscription{}
	if r.sp.subs > 0 {
		d = startDrainer(s.Events())
		for _, sub := range r.fl.subscriptions(r.sp.subs, r.cfg.seed) {
			id, _, err := s.Subscribe(sub, 0)
			if err != nil {
				d.stop()
				return fail(err)
			}
			subs[id] = sub
		}
	}
	for !s.Partitioned() || s.Stats().SwapInFlight {
		if time.Since(start) > time.Minute {
			d.stop()
			return fail(errors.New("bootstrap cutover did not finish within a minute"))
		}
		time.Sleep(time.Millisecond)
	}
	return s, d, subs, time.Since(start), nil
}

// subscriptions are n zone alerts: Table 1 circles at uniform centers,
// each watching the predictive horizon.
func (f *fleet) subscriptions(n int, seed int64) []monitor.Subscription {
	rng := newRand(seed, 3)
	out := make([]monitor.Subscription, n)
	for i := range out {
		c := geom.Circle{C: randPoint(rng, f.domain), R: f.radius}
		out[i] = monitor.Subscription{
			Query:   model.RangeQuery{Kind: model.TimeSlice, Circle: c, Rect: c.Bound()},
			Horizon: f.horizon,
		}
	}
	return out
}

// refuseDiskLatency fails if the Store's in-memory page store sleeps on a
// page access: wall-clock numbers must measure the program, not a timer.
func refuseDiskLatency(s *vpindex.Store) error {
	ms, ok := s.Pools()[0].Disk().(*storage.MemStore)
	if !ok {
		return nil
	}
	id, err := ms.Allocate()
	if err != nil {
		return err
	}
	defer ms.Free(id)
	var buf [storage.PageSize]byte
	const reads = 64
	start := time.Now()
	for i := 0; i < reads; i++ {
		if err := ms.ReadPage(id, &buf); err != nil {
			return err
		}
	}
	if per := time.Since(start) / reads; per > 20*time.Microsecond {
		return fmt.Errorf("refusing to run: an in-memory page read takes %v; a disk latency is set", per)
	}
	return nil
}

// phaseStats is what a measured phase leaves behind.
type phaseStats struct {
	wall       time.Duration
	ops        int64 // client ops completed
	reports    int64 // acknowledged reports
	mem0, mem1 runtime.MemStats
	gcFrac     float64
	dur0, dur1 vpindex.DurabilityStats
	events     int64
}

// measure runs the untraced phase: the whole run, or half of it when half
// is set.
func (r *run) measure(half bool) phaseStats {
	var ps phaseStats
	runtime.ReadMemStats(&ps.mem0)
	gc0 := gcCPU()
	ps.dur0, _ = r.store.DurabilityStats()
	ev0 := r.drain.settle()
	pos0, reports0 := r.c.pos, r.c.reports
	ps.wall = r.phase(false, half)
	ps.events = r.drain.settle() - ev0
	ps.dur1, _ = r.store.DurabilityStats()
	ps.gcFrac = gcCPU().fracSince(gc0)
	runtime.ReadMemStats(&ps.mem1)
	ps.ops = int64(r.c.pos - pos0)
	ps.reports = int64(r.c.reports - reports0)
	return ps
}

// phase drives the client until its deadline (time-bounded workloads) or
// its op budget (fixed-count ones). half takes half of either.
func (r *run) phase(traced, half bool) time.Duration {
	seconds := r.cfg.seconds
	if half {
		seconds /= 2
	}
	c := r.c
	start := time.Now()
	var deadline time.Time
	if !r.sp.fixedCount {
		deadline = start.Add(time.Duration(seconds * float64(time.Second)))
	}
	c.marks = c.marks[:0]
	end := len(c.ops)
	if r.sp.fixedCount && half && !traced {
		end = len(c.ops) / 2
	}
	r.drive(traced, start, deadline, end)
	return time.Since(start)
}

func (r *run) drive(traced bool, start, deadline time.Time, end int) {
	c := r.c
	for c.pos < end {
		o := c.ops[c.pos]
		var (
			err error
			t1  time.Time
		)
		if traced {
			t1, err = r.tracedOp(o)
		} else {
			t0 := time.Now()
			err = r.exec(o)
			t1 = time.Now()
			for w := int(t1.Sub(start) / window); len(c.marks) <= w; {
				var m [numKinds]int
				for k := range m {
					m[k] = len(c.lat[k])
				}
				c.marks = append(c.marks, m)
			}
			c.lat[o.kind] = append(c.lat[o.kind], int64(t1.Sub(t0)))
		}
		c.attempts++
		if err != nil {
			c.failures[c.pos] = err
		} else if o.kind == opReport {
			c.reports++
			if every := int(r.sp.ckptShare * float64(r.cfg.objects)); every > 0 && c.reports%every == 0 {
				r.checkpoint()
			}
		}
		c.pos++
		if !deadline.IsZero() && !t1.Before(deadline) {
			return
		}
	}
	c.ranOut = !deadline.IsZero()
}

func (r *run) exec(o op) error {
	switch o.kind {
	case opReport:
		return r.store.Report(o.obj)
	case opSearch:
		_, err := r.store.Search(r.fl.rangeQuery(o))
		return err
	default:
		_, err := r.store.SearchKNN(r.fl.knnQuery(o))
		return err
	}
}

func (r *run) checkpoint() {
	start := time.Now()
	err := r.store.Checkpoint()
	took := time.Since(start)
	r.extraOK++
	if err != nil {
		r.extraKO++
		r.res.notes = append(r.res.notes, fmt.Sprintf("checkpoint: %v", err))
		return
	}
	ds, _ := r.store.DurabilityStats()
	c := r.c
	c.ckptNs = append(c.ckptNs, float64(took))
	c.ckptPause = append(c.ckptPause, float64(ds.CheckpointPauseNs))
	c.ckptBytes = append(c.ckptBytes, float64(ds.CheckpointBytes))
}

// window is the span a throughput sample counts ops over.
const window = time.Second

// minChunk is the fewest samples a latency percentile is taken over: the
// 99th percentile of 1,000 samples has ten beyond it, the 95th fifty.
const minChunk = 1000

// endToEnd records the untraced run's end-to-end metrics. Throughput is the
// median of the per-window rates and each latency percentile the median of
// its per-chunk values, so a burst of interference from outside the
// program moves a few windows rather than the result.
func (r *run) endToEnd(ps phaseStats, setupS []float64, heapBase uint64) {
	heap := heapInuse()
	res := &r.res
	rates, chunks := r.windows(ps.wall)
	if len(rates) == 0 {
		rates = []float64{float64(ps.ops) / ps.wall.Seconds()}
	}
	res.add("ops_per_s", "1/s", median(rates))
	res.add("report_p95_us", "us", chunkPercentile(chunks[opReport], 95))
	for k := opKind(0); k < numKinds; k++ {
		res.add(kindNames[k]+"_p50_us", "us", chunkPercentile(chunks[k], 50))
		n := 0
		for _, ch := range chunks[k] {
			n += len(ch)
		}
		res.notes = append(res.notes, fmt.Sprintf("%s latency: %d samples in %d chunks", kindNames[k], n, len(chunks[k])))
	}
	res.add("setup_s", "s", median(setupS))
	res.add("heap_mb", "MiB", (float64(heap)-float64(heapBase))/(1<<20))
	res.notes = append(res.notes, fmt.Sprintf("set-ups: %v s; ops/s per window: %.0f", setupS, rates))
}

// chunkPercentile is the median over chunks of each chunk's p-th
// percentile, in microseconds.
func chunkPercentile(chunks [][]int64, p float64) float64 {
	var v []float64
	for _, ch := range chunks {
		v = append(v, float64(percentile(ch, p))/1e3)
	}
	return median(v)
}

// windows returns the throughput of each full window of the untraced phase
// and, per op kind, its latency samples cut into chunks of consecutive
// windows holding at least minChunk samples (a short tail joins the last
// chunk).
func (r *run) windows(wall time.Duration) (rates []float64, chunks [numKinds][][]int64) {
	c := r.c
	full := int(wall / window)
	var cur [numKinds][]int64
	for w := range c.marks {
		n := 0
		for k := range cur {
			lo, hi := c.marks[w][k], len(c.lat[k])
			if w+1 < len(c.marks) {
				hi = c.marks[w+1][k]
			}
			cur[k] = append(cur[k], c.lat[k][lo:hi]...)
			n += hi - lo
		}
		if w < full {
			rates = append(rates, float64(n)/window.Seconds())
		}
		for k := range cur {
			if len(cur[k]) >= minChunk {
				chunks[k] = append(chunks[k], cur[k])
				cur[k] = nil
			}
		}
	}
	for k, tail := range cur {
		switch {
		case len(tail) == 0:
		case len(chunks[k]) > 0:
			last := len(chunks[k]) - 1
			chunks[k][last] = append(chunks[k][last], tail...)
		default:
			chunks[k] = append(chunks[k], tail)
		}
	}
	return rates, chunks
}

// heapInuse is HeapInuse after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

type cpuSample struct{ gc, total float64 }

func gcCPU() cpuSample {
	s := []runmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	runmetrics.Read(s)
	if s[0].Value.Kind() != runmetrics.KindFloat64 || s[1].Value.Kind() != runmetrics.KindFloat64 {
		return cpuSample{}
	}
	return cpuSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

func (c cpuSample) fracSince(c0 cpuSample) float64 {
	if c.total <= c0.total {
		return 0
	}
	return (c.gc - c0.gc) / (c.total - c0.total)
}

// expected is the acknowledged state: the initial fleet overwritten by
// every acknowledged report, in stream order.
func (r *run) expected() map[model.ObjectID]model.Object {
	m := make(map[model.ObjectID]model.Object, len(r.fl.initial))
	for _, o := range r.fl.initial {
		m[o.ID] = o
	}
	c := r.c
	for i, o := range c.ops[:c.pos] {
		if _, bad := c.failures[i]; o.kind == opReport && !bad {
			m[o.obj.ID] = o.obj
		}
	}
	return m
}

// reopen abandons the durable Store without Close — as a crash would — and
// re-opens its directory, checking that every acknowledged report survived.
func (r *run) reopen() error {
	want := r.expected()
	r.store = nil
	start := time.Now()
	s, err := vpindex.Open(r.storeOptions(r.dir)...)
	if err != nil {
		return fmt.Errorf("re-open: %w", err)
	}
	took := time.Since(start)
	r.store = s
	ds, _ := s.DurabilityStats()
	r.extraOK++
	bad := 0
	if s.Len() != len(want) {
		bad++
	}
	for id, o := range want {
		if got, ok := s.Get(id); !ok || got != o {
			bad++
		}
	}
	if bad > 0 {
		r.extraKO++
		r.res.notes = append(r.res.notes, fmt.Sprintf("re-opened store differs from the acknowledged state in %d objects", bad))
	}
	if r.cfg.trace {
		r.res.add("recovery_s", "s", took.Seconds())
		r.res.add("durability.replayed_records", "count", float64(ds.ReplayedRecords))
	}
	return nil
}

// layerMetricsA records the per-layer metrics phase A measures.
func (r *run) layerMetricsA(ps phaseStats) {
	res := &r.res
	// These tails swing by a third to a half between runs on a shared
	// 2-vCPU machine, too far to gate on, so they are reported unbounded.
	_, chunks := r.windows(ps.wall)
	res.add("search_p95_us", "us", chunkPercentile(chunks[opSearch], 95))
	res.add("knn_p95_us", "us", chunkPercentile(chunks[opKNN], 95))
	for k := opKind(0); k < numKinds; k++ {
		res.add(kindNames[k]+"_p99_us", "us", chunkPercentile(chunks[k], 99))
	}
	res.add("runtime.gc_cpu_frac", "ratio", ps.gcFrac)
	res.add("runtime.alloc_bytes_per_op", "bytes", perOp(float64(ps.mem1.TotalAlloc-ps.mem0.TotalAlloc), ps.ops))
	ckptNs, pause, bytes := r.c.ckptNs, r.c.ckptPause, r.c.ckptBytes
	res.add("checkpoint_ms", "ms", median(ckptNs)/1e6)
	res.add("durability.checkpoint_pause_us", "us", median(pause)/1e3)
	res.add("durability.checkpoint_bytes", "bytes", median(bytes))
	res.add("wal_bytes_per_report", "bytes", perOp(float64(ps.dur1.WALAppendedLSN-ps.dur0.WALAppendedLSN), ps.reports))
	diskPerObj := 0.0
	if r.dir != "" {
		diskPerObj = float64(dirBytes(r.dir)) / float64(r.store.Len())
	}
	res.add("disk_bytes_per_object", "bytes", diskPerObj)
	res.add("monitor.events_per_report", "count", perOp(float64(ps.events), ps.reports))
	res.add("monitor.dropped_events", "count", float64(r.store.DroppedEvents()))
	if len(ckptNs) > 0 {
		res.notes = append(res.notes, fmt.Sprintf("checkpoints: %d", len(ckptNs)))
	}
}

func perOp(v float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// drainer consumes the Store's event stream so emitters never block.
type drainer struct {
	ch   <-chan vpindex.MonitorEvent
	n    atomic.Int64
	quit chan struct{}
	done chan struct{}
}

func startDrainer(ch <-chan vpindex.MonitorEvent) *drainer {
	d := &drainer{ch: ch, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		for {
			select {
			case <-ch:
				d.n.Add(1)
			case <-d.quit:
				return
			}
		}
	}()
	return d
}

// settle waits for the buffered events to be consumed and returns the
// count so far. A nil drainer counts nothing.
func (d *drainer) settle() int64 {
	if d == nil {
		return 0
	}
	for i := 0; len(d.ch) > 0 && i < 1000; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	return d.n.Load()
}

func (d *drainer) stop() {
	if d == nil {
		return
	}
	close(d.quit)
	<-d.done
}

// storeKind reports which base tree the Store's partitions use.
func storeKind(s *vpindex.Store) vpindex.Kind {
	if ps := s.Partitions(); len(ps) > 0 {
		if _, ok := ps[0].Index.(*bxtree.Tree); ok {
			return vpindex.Bx
		}
	}
	return vpindex.TPRStar
}

// structureMetrics records the sizes that give the layer numbers context.
func (r *run) structureMetrics() {
	s := r.store
	parts := s.Partitions()
	res := &r.res
	res.add("store.trees_per_search", "count", float64(s.NumShards()*len(parts)))
	total, largest := 0, 0
	for _, p := range parts {
		total += p.Size
		largest = max(largest, p.Size)
	}
	skew := 0.0
	if total > 0 {
		skew = float64(largest) / (float64(total) / float64(len(parts)))
	}
	res.add("core.partition_skew", "ratio", skew)
	disks := map[storage.PageStore]bool{}
	pages, cache := 0, 0
	for _, p := range s.Pools() {
		cache += p.Capacity()
		if !disks[p.Disk()] {
			disks[p.Disk()] = true
			pages += p.Disk().NumPages()
		}
	}
	res.add("storage.index_pages", "pages", float64(pages))
	res.add("storage.cache_pages", "pages", float64(cache))

	sample := make([]geom.Vec2, 0, vpindex.DefaultAutoPartitionSample)
	for _, o := range r.fl.initial {
		if len(sample) == cap(sample) {
			break
		}
		sample = append(sample, o.Vel)
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := core.Analyze(sample, core.AnalyzerConfig{K: 2}); err != nil {
			r.res.notes = append(r.res.notes, fmt.Sprintf("core.Analyze: %v", err))
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	res.add("core.analyze_ms", "ms", median(ms))
}

// sameIDs reports whether a and b hold the same ids in any order.
func sameIDs(a, b []model.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	sorted := func(ids []model.ObjectID) []model.ObjectID {
		out := append([]model.ObjectID(nil), ids...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	a, b = sorted(a), sorted(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
