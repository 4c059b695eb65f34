package vpindex_test

import (
	"math/rand"
	"sort"
	"testing"

	vpindex "repro"
	"repro/internal/bench"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestNewDefaults: a newly opened Store of either kind serves the full
// Report/Search/Remove cycle with every option at its default.
func TestNewDefaults(t *testing.T) {
	for _, kind := range []vpindex.Kind{vpindex.TPRStar, vpindex.Bx} {
		store, err := vpindex.Open(vpindex.WithKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		if store.Len() != 0 || store.Partitioned() {
			t.Fatal("new store not empty and unpartitioned")
		}
		o := vpindex.Object{ID: 1, Pos: vpindex.V(100, 100), Vel: vpindex.V(5, 5), T: 0}
		if err := store.Report(o); err != nil {
			t.Fatal(err)
		}
		ids, err := store.Search(vpindex.SliceQuery(vpindex.Circle{C: vpindex.V(150, 150), R: 100}, 0, 10))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || ids[0] != 1 {
			t.Fatalf("%v: ids = %v", kind, ids)
		}
		if err := store.Remove(o.ID); err != nil {
			t.Fatal(err)
		}
		if store.Len() != 0 {
			t.Fatal("remove did not shrink store")
		}
	}
}

func TestKindString(t *testing.T) {
	if vpindex.TPRStar.String() != "tpr*" || vpindex.Bx.String() != "bx" {
		t.Fatal("kind names")
	}
}

func TestQueryBuilders(t *testing.T) {
	c := vpindex.Circle{C: vpindex.V(10, 20), R: 5}
	q := vpindex.SliceQuery(c, 1, 2)
	if q.Kind != vpindex.TimeSlice || !q.IsCircle() || q.Now != 1 || q.T0 != 2 {
		t.Fatalf("slice: %+v", q)
	}
	r := vpindex.R(0, 0, 10, 10)
	q = vpindex.RectSliceQuery(r, 0, 5)
	if q.IsCircle() || q.Rect != r {
		t.Fatalf("rect slice: %+v", q)
	}
	q = vpindex.IntervalQuery(r, 0, 5, 9)
	if q.Kind != vpindex.TimeInterval || q.T1 != 9 {
		t.Fatalf("interval: %+v", q)
	}
	q = vpindex.MovingQuery(r, vpindex.V(1, 2), 0, 3, 8)
	if q.Kind != vpindex.MovingRange || q.Vel != vpindex.V(1, 2) {
		t.Fatalf("moving: %+v", q)
	}
	for _, q := range []vpindex.RangeQuery{
		vpindex.SliceQuery(c, 1, 2),
		vpindex.RectSliceQuery(r, 0, 5),
		vpindex.IntervalQuery(r, 0, 5, 9),
		vpindex.MovingQuery(r, vpindex.V(1, 2), 0, 3, 8),
	} {
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewVPRequiresSample: a velocity-partitioned Store refuses an upfront
// sample or an auto-partition threshold too small to form k partitions.
func TestNewVPRequiresSample(t *testing.T) {
	if _, err := vpindex.Open(vpindex.WithVelocitySample([]vpindex.Vec2{{X: 1}})); err == nil {
		t.Fatal("sample smaller than k accepted")
	}
	if _, err := vpindex.Open(vpindex.WithVelocityPartitioning(2), vpindex.WithAutoPartition(1)); err == nil {
		t.Fatal("auto-partition sample smaller than k accepted")
	}
}

func TestVPAnalysisExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sample := make([]vpindex.Vec2, 1000)
	for i := range sample {
		s := 20 + rng.Float64()*50
		if i%2 == 0 {
			sample[i] = vpindex.V(s, rng.NormFloat64())
		} else {
			sample[i] = vpindex.V(rng.NormFloat64(), -s)
		}
	}
	store, err := vpindex.Open(vpindex.WithKind(vpindex.Bx), vpindex.WithVelocitySample(sample))
	if err != nil {
		t.Fatal(err)
	}
	an, ok := store.Analysis()
	if !ok || an.NumVelocityFrames() != 2 || an.SampleSize != 1000 {
		t.Fatalf("analysis: %+v (ok=%v)", an, ok)
	}
	if n := len(store.Partitions()); n != 3 {
		t.Fatalf("partitions: %d", n)
	}
}

func TestStatsProgress(t *testing.T) {
	store, err := vpindex.Open(vpindex.WithKind(vpindex.Bx), vpindex.WithBufferPages(4), vpindex.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		o := vpindex.Object{
			ID:  vpindex.ObjectID(i + 1),
			Pos: vpindex.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: vpindex.V(rng.Float64()*100-50, rng.Float64()*100-50),
			T:   0,
		}
		if err := store.Report(o); err != nil {
			t.Fatal(err)
		}
	}
	st := store.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("tiny buffer should force I/O: %+v", st)
	}
	if st.Total() != st.Reads+st.Writes {
		t.Fatal("Total() arithmetic")
	}
}

// oracleSetup is one configuration the end-to-end oracles replay a
// workload through: one of the paper harness's four setups (built from the
// index layers over one shared buffer pool), or — with setup empty — the
// Store.
type oracleSetup struct {
	name  string
	setup bench.Setup
}

var oracleSetups = []oracleSetup{
	{"bx", bench.SetupBx},
	{"bx-vp", bench.SetupBxVP},
	{"tpr", bench.SetupTPR},
	{"tpr-vp", bench.SetupTPRVP},
	{"store", ""},
}

// oracleIndex is the surface the end-to-end oracles drive: a bulk load,
// one update verb, and the queries.
type oracleIndex struct {
	load   func([]vpindex.Object) error
	update func(old, new vpindex.Object) error
	search func(vpindex.RangeQuery) ([]vpindex.ObjectID, error)
	knn    func(vpindex.KNNQuery) ([]vpindex.Neighbor, error)
	len    func() int
}

// buildOracleIndex builds su for gen's workload. Harness setups load with
// Insert and update with Update(old, new); the Store loads with
// ReportBatch and updates with Report. storeOpts configure the Store.
func buildOracleIndex(t *testing.T, su oracleSetup, gen *workload.Generator, bufferPages int, storeOpts ...vpindex.Option) oracleIndex {
	t.Helper()
	if su.setup == "" {
		store, err := vpindex.Open(append([]vpindex.Option{
			vpindex.WithDomain(gen.Params().Domain),
			vpindex.WithBufferPages(bufferPages),
		}, storeOpts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return oracleIndex{
			load:   store.ReportBatch,
			update: func(_, new vpindex.Object) error { return store.Report(new) },
			search: store.Search,
			knn:    store.SearchKNN,
			len:    store.Len,
		}
	}
	idx, err := bench.Build(su.setup, gen, bufferPages)
	if err != nil {
		t.Fatal(err)
	}
	return oracleIndex{
		load: func(objs []vpindex.Object) error {
			for _, o := range objs {
				if err := idx.Insert(o); err != nil {
					return err
				}
			}
			return nil
		},
		update: idx.Update,
		search: idx.Search,
		knn:    idx.Index.(model.KNNIndex).SearchKNN,
		len:    idx.Len,
	}
}

// TestEndToEndOracleAllDatasetsAllSetups is the repository's strongest
// integration test: for every dataset and every index configuration,
// replay a full benchmark workload (load + updates interleaved with
// queries) and require bit-identical result sets against the brute-force
// oracle at every query.
func TestEndToEndOracleAllDatasetsAllSetups(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, ds := range workload.Datasets() {
		for _, su := range oracleSetups {
			t.Run(string(ds)+"/"+su.name, func(t *testing.T) {
				p := workload.DefaultParams(ds, 900)
				p.Domain = vpindex.R(0, 0, 12000, 12000)
				p.Duration = 30
				p.NumQueries = 15
				p.SampleSize = 900
				gen, err := workload.NewGenerator(p)
				if err != nil {
					t.Fatal(err)
				}
				// The Store bootstraps its partitions from the load and
				// refreshes tau online while the updates stream in.
				idx := buildOracleIndex(t, su, gen, 20,
					vpindex.WithKind(vpindex.Bx),
					vpindex.WithShards(2),
					vpindex.WithVelocityPartitioning(2),
					vpindex.WithAutoPartition(600),
					vpindex.WithTauRefreshInterval(400),
					vpindex.WithSeed(5),
				)
				oracle := model.NewBruteForce()
				if err := idx.load(gen.Initial()); err != nil {
					t.Fatal(err)
				}
				for _, o := range gen.Initial() {
					_ = oracle.Insert(o)
				}
				queries := gen.Queries(p.NumQueries)
				// Add the other two query kinds at matching issue times.
				queries = append(queries, gen.IntervalQueries(5, 15)...)
				queries = append(queries, gen.MovingQueries(5, 15)...)
				sort.Slice(queries, func(a, b int) bool { return queries[a].Now < queries[b].Now })
				qi := 0
				check := func(now float64) {
					for qi < len(queries) && queries[qi].Now <= now {
						q := queries[qi]
						qi++
						got, err := idx.search(q)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := oracle.Search(q)
						sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
						sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
						if len(got) != len(want) {
							t.Fatalf("query at t=%g (%v): %d vs %d results",
								q.Now, q.Kind, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("query at t=%g: result %d differs", q.Now, i)
							}
						}
					}
				}
				for {
					ev, ok := gen.NextUpdate()
					if !ok {
						break
					}
					check(ev.T)
					if err := idx.update(ev.Old, ev.New); err != nil {
						t.Fatalf("update at t=%g: %v", ev.T, err)
					}
					if err := oracle.Update(ev.Old, ev.New); err != nil {
						t.Fatal(err)
					}
				}
				check(p.Duration + 1)
				if idx.len() != oracle.Len() {
					t.Fatalf("len %d vs %d", idx.len(), oracle.Len())
				}
			})
		}
	}
}
