package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/model"
)

// layerAcc sums the replica's spans per op kind and per layer.
type layerAcc struct {
	ops        [numKinds]int64
	replicaNs  [numKinds]int64 // root spans: the replica's whole cost of the op
	coreSelf   [numKinds]int64
	indexSelf  [numKinds]int64
	indexCalls [numKinds]int64
	ns, n      [numLayers]int64
	candidates int64

	// Store pool misses around each query (queries run alone).
	misses [numKinds]int64
}

func (a *layerAcc) add(k opKind, spans []span) {
	self := selfTimes(spans)
	a.ops[k]++
	for i, s := range spans {
		d := s.end - s.start
		a.ns[s.name] += d
		a.n[s.name]++
		if s.parent < 0 {
			a.replicaNs[k] += d
		}
		switch {
		case s.name >= lCoreReport && s.name <= lCoreKNN:
			a.coreSelf[k] += self[i]
		case isIndex(s.name):
			a.indexSelf[k] += self[i]
			a.indexCalls[k]++
		}
	}
}

// traced runs phase B: a replica mirroring the Store's current state
// replays the rest of the client's stream beside the Store, every call
// wrapped in a span.
func (r *run) traced() error {
	if !r.sp.durable {
		r.res.add("recovery_s", "s", 0)
		r.res.add("durability.replayed_records", "count", 0)
	}
	r.structureMetrics()
	an, ok := r.store.Analysis()
	if !ok {
		return fmt.Errorf("store is not partitioned")
	}
	want := r.expected()
	objs := make([]model.Object, 0, len(want))
	for _, o := range want {
		objs = append(objs, o)
	}
	rcfg := replicaConfig{
		analysis: an,
		domain:   r.fl.domain,
		kind:     storeKind(r.store),
		// One unsharded manager gets the cache all shards share.
		poolPages: r.store.Pools()[0].Capacity() * r.store.NumShards(),
		subs:      r.subs,
	}
	if r.sp.durable {
		rcfg.dir = filepath.Join(r.cfg.workDir, "replica")
	}
	rep, err := newReplica(rcfg, objs)
	if err != nil {
		return err
	}
	r.rep = rep

	c := r.c
	io0, reports0 := r.store.Stats(), c.reports
	rep.setTracing(true)
	r.phase(true, true)
	rep.setTracing(false)
	io1, reports := r.store.Stats(), int64(c.reports-reports0)

	a := &r.acc
	res := &r.res
	storeNs, storeN := c.storeNs, c.storeN
	us := func(ns, n int64) float64 { return perOp(float64(ns), n) / 1e3 }
	for k := opKind(0); k < numKinds; k++ {
		residual := 0.0
		if a.ops[k] > 0 {
			residual = us(storeNs[k], storeN[k]) - us(a.replicaNs[k], a.ops[k])
		}
		res.add("store.residual_us."+kindNames[k], "us", residual)
	}
	res.add("core.route_us.report", "us", us(a.coreSelf[opReport], a.ops[opReport]))
	res.add("core.route_us.search", "us", us(a.coreSelf[opSearch], a.ops[opSearch]))
	res.add("index.update_us", "us", us(a.indexSelf[opReport], a.ops[opReport]))
	res.add("index.search_us", "us", us(a.indexSelf[opSearch], a.ops[opSearch]))
	res.add("index.knn_us", "us", us(a.indexSelf[opKNN], a.ops[opKNN]))
	res.add("index.calls_per_report", "count", perOp(float64(a.indexCalls[opReport]), a.ops[opReport]))
	res.add("index.alloc_bytes_per_report", "bytes", r.allocPass())

	hits, misses := io1.Hits-io0.Hits, io1.Reads-io0.Reads
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	res.add("storage.hit_ratio", "ratio", hitRatio)
	res.add("storage.reads_per_report", "pages", perOp(float64(misses-a.misses[opSearch]-a.misses[opKNN]), reports))
	res.add("storage.writes_per_report", "pages", perOp(float64(io1.Writes-io0.Writes), reports))
	res.add("search_io_pages", "pages", perOp(float64(a.misses[opSearch]), storeN[opSearch]))
	res.add("storage.read_us", "us", us(a.ns[lStorageRead], a.n[lStorageRead]))
	res.add("storage.write_us", "us", us(a.ns[lStorageWrite], a.n[lStorageWrite]))
	res.add("wal.append_us", "us", us(a.ns[lWALAppend], a.n[lWALAppend]))
	res.add("wal.commit_us", "us", us(a.ns[lWALCommit], a.n[lWALCommit]))
	res.add("monitor.candidates_per_report", "count", perOp(float64(a.candidates), a.ops[opReport]))
	res.add("monitor.filter_us", "us", us(a.ns[lMonitorFilter], a.n[lMonitorFilter]))
	res.add("monitor.match_us", "us", us(a.ns[lMonitorMatch], a.n[lMonitorMatch]))

	// Tracing overhead: the traced Store mean over the untraced one.
	var untracedNs, untracedN, tracedNs, tracedN int64
	for k := range c.lat {
		for _, v := range c.lat[k] {
			untracedNs += v
		}
		untracedN += int64(len(c.lat[k]))
	}
	for k := range storeNs {
		tracedNs += storeNs[k]
		tracedN += storeN[k]
	}
	overhead := 0.0
	if untracedN > 0 && tracedN > 0 {
		overhead = perOp(float64(tracedNs), tracedN)/perOp(float64(untracedNs), untracedN) - 1
	}
	res.add("trace.overhead_frac", "ratio", overhead)
	res.notes = append(res.notes, fmt.Sprintf("traced ops: %d report, %d search, %d knn; spans kept %d, dropped %d",
		a.ops[opReport], a.ops[opSearch], a.ops[opKNN], len(rep.rec.kept), rep.rec.dropped))
	path := filepath.Join(filepath.Dir(r.cfg.workDir), "trace-"+r.sp.name+".csv")
	if err := rep.rec.writeCSV(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.res.notes = append(r.res.notes, "spans written to "+path)
	return nil
}

// tracedOp runs one op on the Store and then on the replica, so both
// answer a query from the same state and the Store pool misses around a
// query are its own.
func (r *run) tracedOp(o op) (time.Time, error) {
	r.nextOp++
	id := r.nextOp
	var (
		t0, t1 time.Time
		err    error
	)
	switch o.kind {
	case opReport:
		t0 = time.Now()
		err = r.store.Report(o.obj)
		t1 = time.Now()
		if err == nil {
			var cands int
			cands, err = r.rep.report(o.obj)
			r.rep.rec.finish(id, func(sp []span) { r.acc.add(opReport, sp) })
			r.acc.candidates += int64(cands)
		}
	case opSearch:
		q := r.fl.rangeQuery(o)
		before := r.store.Stats().Reads
		t0 = time.Now()
		var ids []model.ObjectID
		ids, err = r.store.Search(q)
		t1 = time.Now()
		r.acc.misses[opSearch] += r.store.Stats().Reads - before
		if err == nil {
			var want []model.ObjectID
			want, err = r.rep.search(q)
			r.rep.rec.finish(id, func(sp []span) { r.acc.add(opSearch, sp) })
			if err == nil && !sameIDs(ids, want) {
				err = fmt.Errorf("search %v: store returned %d ids, replica %d", q.Circle, len(ids), len(want))
			}
		}
	default:
		q := r.fl.knnQuery(o)
		before := r.store.Stats().Reads
		t0 = time.Now()
		var ns []model.Neighbor
		ns, err = r.store.SearchKNN(q)
		t1 = time.Now()
		r.acc.misses[opKNN] += r.store.Stats().Reads - before
		if err == nil {
			var want []model.Neighbor
			want, err = r.rep.knn(q)
			r.rep.rec.finish(id, func(sp []span) { r.acc.add(opKNN, sp) })
			if err == nil && !sameNeighbors(ns, want) {
				err = fmt.Errorf("kNN at %v: store and replica disagree", q.Center)
			}
		}
	}
	r.rep.rec.addRoot(id, storeLayer[o.kind], t0, t1)
	r.c.storeNs[o.kind] += int64(t1.Sub(t0))
	r.c.storeN[o.kind]++
	return t1, err
}

// sameNeighbors reports whether two kNN answers agree up to ties: the same
// distances in order, and the same ids within each group of equal distance
// except the last, whose members either answer may pick among the objects
// tied at the k-th distance.
func sameNeighbors(a, b []model.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(x)) }
	ids := func(ns []model.Neighbor) []model.ObjectID {
		out := make([]model.ObjectID, len(ns))
		for i, n := range ns {
			out[i] = n.ID
		}
		return out
	}
	for i := 0; i < len(a); {
		j := i + 1
		for j < len(a) && near(a[j].Dist, a[i].Dist) {
			j++
		}
		for x := i; x < j; x++ {
			if !near(a[x].Dist, b[x].Dist) {
				return false
			}
		}
		if j < len(a) && !sameIDs(ids(a[i:j]), ids(b[i:j])) {
			return false
		}
		i = j
	}
	return true
}

// allocPass replays the last allocReports reports the client sent through
// the replica alone, with nothing else running, and returns the bytes its
// tree calls allocated per report.
func (r *run) allocPass() float64 {
	const allocReports = 1000
	c := r.c
	var batch []model.Object
	for i := c.pos - 1; i >= 0 && len(batch) < allocReports; i-- {
		if c.ops[i].kind == opReport {
			batch = append(batch, c.ops[i].obj)
		}
	}
	if len(batch) == 0 {
		return 0
	}
	r.rep.allocMode = true
	for i := len(batch) - 1; i >= 0; i-- {
		if err := r.rep.mgr.Report(batch[i]); err != nil {
			r.res.notes = append(r.res.notes, fmt.Sprintf("alloc pass: %v", err))
			break
		}
	}
	r.rep.allocMode = false
	return float64(r.rep.allocBytes) / float64(len(batch))
}
