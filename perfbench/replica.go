package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"

	vpindex "repro"
	"repro/internal/bxtree"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/storage"
	"repro/internal/tprtree"
	"repro/internal/wal"
)

// replica replays the op stream through the layers' public functions —
// one unsharded core.Manager built from the Store's analysis, over wrapped
// trees on buffer pools over a timing PageStore, plus a WAL (durable) and a
// monitor.Filter (subscriptions) — recording a span around every call.
// Calls into it must be serialized by the caller; only the partition
// fan-out inside the manager runs concurrently.
type replica struct {
	rec  *recorder
	mgr  *core.Manager
	disk storage.PageStore
	log  *wal.WAL

	filter  *monitor.Filter
	subs    map[monitor.SubscriptionID]monitor.Subscription
	allSubs []monitor.SubscriptionID
	clock   float64

	// coreSpan is the open manager span: the parent of every tree call.
	coreSpan atomic.Int32

	// allocMode makes the tree wrappers add the bytes each call allocates
	// to allocBytes (quiescent pass only: ReadMemStats stops the world).
	allocMode  bool
	allocBytes uint64
}

// replicaConfig says what to mirror: the Store's partition layout, its
// buffer capacity, and the optional WAL and subscription layers.
type replicaConfig struct {
	analysis  core.Analysis
	domain    geom.Rect
	kind      vpindex.Kind
	poolPages int
	dir       string // non-empty: FileStore + WAL under dir (SyncNone, as the Store)
	subs      map[monitor.SubscriptionID]monitor.Subscription
}

func newReplica(cfg replicaConfig, objs []model.Object) (*replica, error) {
	r := &replica{rec: newRecorder()}
	if cfg.dir != "" {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, err
		}
		fs, err := storage.OpenFileStore(filepath.Join(cfg.dir, "pages.dat"), storage.FileStoreOptions{Truncate: true})
		if err != nil {
			return nil, err
		}
		r.disk = fs
		w, err := wal.Open(filepath.Join(cfg.dir, "wal"), wal.Options{Policy: wal.None()})
		if err != nil {
			fs.Close()
			return nil, err
		}
		r.log = w
	} else {
		r.disk = storage.NewMemStore()
	}
	mgr, err := core.NewManager(cfg.analysis, core.ManagerConfig{Domain: cfg.domain}, func(spec core.PartitionSpec) (model.Index, error) {
		pt := &partTrace{}
		pt.cur.Store(-1)
		pool := storage.NewBufferPool(&timedPages{PageStore: r.disk, r: r, pt: pt}, cfg.poolPages)
		var (
			idx model.Index
			err error
		)
		switch cfg.kind {
		case vpindex.Bx:
			idx, err = bxtree.NewTree(pool, bxtree.Config{Domain: spec.Domain})
		default:
			idx, err = tprtree.NewTree(pool, tprtree.Config{})
		}
		if err != nil {
			return nil, err
		}
		return &timedIndex{inner: idx, r: r, pt: pt}, nil
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.mgr = mgr
	sorted := append([]model.Object(nil), objs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	if err := mgr.InsertBulk(sorted); err != nil {
		r.close()
		return nil, fmt.Errorf("replica load: %w", err)
	}
	if len(cfg.subs) > 0 {
		r.subs = cfg.subs
		r.filter = monitor.NewFilter(cfg.domain, 0)
		r.filter.SetClasses(filterClasses(cfg.analysis), r.subs)
		for id := range r.subs {
			r.allSubs = append(r.allSubs, id)
		}
		sort.Slice(r.allSubs, func(i, j int) bool { return r.allSubs[i] < r.allSubs[j] })
	}
	r.coreSpan.Store(-1)
	return r, nil
}

// filterClasses derives the subscription filter's velocity classes from an
// analysis: one per DVA axis, none for other objectives.
func filterClasses(an core.Analysis) []monitor.VelocityClass {
	var out []monitor.VelocityClass
	if an.Kind != core.KindDVA {
		return out
	}
	for _, f := range an.Frames {
		if !f.IsOutlier {
			out = append(out, monitor.VelocityClass{Axis: f.Axis, Perp: f.Tau})
		}
	}
	return out
}

func (r *replica) close() {
	if r.log != nil {
		r.log.Close()
	}
	r.disk.Close()
}

func (r *replica) setTracing(on bool) {
	r.rec.mu.Lock()
	r.rec.on = on
	r.rec.mu.Unlock()
}

// core runs one manager call inside its span.
func (r *replica) core(name layer, fn func() error) error {
	i := r.rec.open(name, -1)
	r.coreSpan.Store(i)
	err := fn()
	r.rec.close(i)
	r.coreSpan.Store(-1)
	return err
}

// report is the replica write path: manager upsert, then (durable) the WAL
// append and commit, then (subscriptions) the filter and exact match.
func (r *replica) report(o model.Object) (candidates int, err error) {
	if err := r.core(lCoreReport, func() error { return r.mgr.Report(o) }); err != nil {
		return 0, err
	}
	if r.log != nil {
		i := r.rec.open(lWALAppend, -1)
		lsn, err := r.log.Append(wal.TypeReport, wal.EncodeReport(o))
		r.rec.close(i)
		if err != nil {
			return 0, err
		}
		i = r.rec.open(lWALCommit, -1)
		err = r.log.Commit(lsn)
		r.rec.close(i)
		if err != nil {
			return 0, err
		}
	}
	if r.filter != nil {
		r.clock = max(r.clock, o.T)
		i := r.rec.open(lMonitorFilter, -1)
		cands, ok := r.filter.Candidates(o, r.clock)
		if !ok {
			r.filter.Grow(o.Vel, r.subs)
			cands = r.allSubs
		}
		r.rec.close(i)
		i = r.rec.open(lMonitorMatch, -1)
		for _, id := range cands {
			monitor.MatchesAt(o, r.subs[id], r.clock)
		}
		r.rec.close(i)
		candidates = len(cands)
	}
	return candidates, nil
}

func (r *replica) search(q model.RangeQuery) (ids []model.ObjectID, err error) {
	err = r.core(lCoreSearch, func() error {
		ids, err = r.mgr.Search(q)
		return err
	})
	return ids, err
}

func (r *replica) knn(q model.KNNQuery) (ns []model.Neighbor, err error) {
	err = r.core(lCoreKNN, func() error {
		ns, err = r.mgr.SearchKNN(q)
		return err
	})
	return ns, err
}

// partTrace carries, per partition, the open tree-call span: the parent of
// the page I/O that call causes. One partition serves one call at a time.
type partTrace struct{ cur atomic.Int32 }

// timedIndex wraps one partition's tree, timing every call. It forwards
// SearchKNN so the manager's kNN path is unchanged.
type timedIndex struct {
	inner model.Index
	r     *replica
	pt    *partTrace
}

var _ model.KNNIndex = (*timedIndex)(nil)

func (t *timedIndex) call(name layer, fn func() error) error {
	i := t.r.rec.open(name, t.r.coreSpan.Load())
	t.pt.cur.Store(i)
	var before runtime.MemStats
	if t.r.allocMode {
		runtime.ReadMemStats(&before)
	}
	err := fn()
	if t.r.allocMode {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		t.r.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	t.pt.cur.Store(-1)
	t.r.rec.close(i)
	return err
}

func (t *timedIndex) Insert(o model.Object) error {
	return t.call(lIndexInsert, func() error { return t.inner.Insert(o) })
}

func (t *timedIndex) Delete(o model.Object) error {
	return t.call(lIndexDelete, func() error { return t.inner.Delete(o) })
}

func (t *timedIndex) Update(old, new model.Object) error {
	return t.call(lIndexUpdate, func() error { return t.inner.Update(old, new) })
}

func (t *timedIndex) Search(q model.RangeQuery) (ids []model.ObjectID, err error) {
	err = t.call(lIndexSearch, func() error {
		ids, err = t.inner.Search(q)
		return err
	})
	return ids, err
}

func (t *timedIndex) SearchKNN(q model.KNNQuery) (ns []model.Neighbor, err error) {
	knn, ok := t.inner.(model.KNNIndex)
	if !ok {
		return nil, fmt.Errorf("%s: %w", t.inner.Name(), model.ErrUnsupported)
	}
	err = t.call(lIndexKNN, func() error {
		ns, err = knn.SearchKNN(q)
		return err
	})
	return ns, err
}

func (t *timedIndex) Len() int          { return t.inner.Len() }
func (t *timedIndex) IO() model.IOStats { return t.inner.IO() }
func (t *timedIndex) Name() string      { return t.inner.Name() }

// timedPages times the page transfers a replica pool makes, parented to the
// tree call that caused them.
type timedPages struct {
	storage.PageStore
	r  *replica
	pt *partTrace
}

func (p *timedPages) ReadPage(id storage.PageID, dst *[storage.PageSize]byte) error {
	i := p.r.rec.open(lStorageRead, p.pt.cur.Load())
	err := p.PageStore.ReadPage(id, dst)
	p.r.rec.close(i)
	return err
}

func (p *timedPages) WritePage(id storage.PageID, src *[storage.PageSize]byte) error {
	i := p.r.rec.open(lStorageWrite, p.pt.cur.Load())
	err := p.PageStore.WritePage(id, src)
	p.r.rec.close(i)
	return err
}
