// Benchmarks regenerating every figure of the VP paper's evaluation
// (Section 6) at a reduced, density-preserving scale, plus operation-level
// micro-benchmarks of the four setups and ablations of the design choices.
// Each figure benchmark reports the series the paper plots as custom
// metrics (queryIO/op = average buffer-pool misses per query).
//
// Paper-scale runs of the same experiments: cmd/vpbench -paper.
package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/workload"
)

// benchScale keeps figure benchmarks to a few seconds each.
func benchScale() Scale { return ScaleFor(2500, 40, 25) }

// benchParams builds a dataset's workload at benchScale-style settings:
// the whole population is the velocity sample.
func benchParams(ds workload.Dataset, sc Scale) workload.Params {
	p := workload.DefaultParams(ds, sc.Objects)
	p.Duration = sc.Duration
	p.NumQueries = sc.Queries
	p.Domain = geom.R(0, 0, sc.DomainSide, sc.DomainSide)
	p.SampleSize = sc.Objects
	return p
}

// runSetup runs one setup over a fresh workload and returns its metrics.
func runSetup(b *testing.B, s Setup, ds workload.Dataset, sc Scale,
	mut func(*workload.Params)) Metrics {
	b.Helper()
	p := benchParams(ds, sc)
	if mut != nil {
		mut(&p)
	}
	gen, err := workload.NewGenerator(p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Run(s, gen, sc.Buffer)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- Figure benchmarks ---------------------------------------------------------

func BenchmarkFig07SearchSpaceExpansion(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, tab, err := RunFig7(sc, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab.Format())
			b.ReportMetric(float64(len(points)), "scatter-points")
		}
	}
}

func BenchmarkFig17TauSweep(b *testing.B) {
	sc := ScaleFor(1500, 25, 20)
	for i := 0; i < b.N; i++ {
		tab, err := RunFig17(workload.Chicago, sc, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab.Format())
		}
	}
}

func BenchmarkFig18AnalyzerOverhead(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tab, err := RunFig18(sc, 42, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tab.Format())
		}
	}
}

func BenchmarkFig19VaryDataset(b *testing.B) {
	sc := benchScale()
	for _, ds := range workload.Datasets() {
		for _, s := range AllSetups() {
			b.Run(fmt.Sprintf("%s/%s", ds, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := runSetup(b, s, ds, sc, nil)
					b.ReportMetric(m.QueryIO, "queryIO/op")
					b.ReportMetric(m.UpdateIO, "updateIO/op")
				}
			})
		}
	}
}

func BenchmarkFig20VaryDataSize(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		sc := ScaleFor(n, 30, 20)
		for _, s := range AllSetups() {
			b.Run(fmt.Sprintf("n=%d/%s", n, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := runSetup(b, s, workload.Chicago, sc, nil)
					b.ReportMetric(m.QueryIO, "queryIO/op")
				}
			})
		}
	}
}

func BenchmarkFig21VaryMaxSpeed(b *testing.B) {
	sc := benchScale()
	for _, speed := range []float64{20, 100, 200} {
		for _, s := range AllSetups() {
			b.Run(fmt.Sprintf("v=%.0f/%s", speed, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := runSetup(b, s, workload.Chicago, sc,
						func(p *workload.Params) { p.MaxSpeed = speed })
					b.ReportMetric(m.QueryIO, "queryIO/op")
				}
			})
		}
	}
}

func BenchmarkFig22VaryQueryRadius(b *testing.B) {
	sc := benchScale()
	for _, r := range []float64{100, 500, 1000} {
		for _, s := range AllSetups() {
			b.Run(fmt.Sprintf("r=%.0f/%s", r, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := runSetup(b, s, workload.Chicago, sc,
						func(p *workload.Params) { p.QueryRadius = r })
					b.ReportMetric(m.QueryIO, "queryIO/op")
				}
			})
		}
	}
}

func BenchmarkFig23VaryPredictiveTime(b *testing.B) {
	sc := benchScale()
	for _, h := range []float64{20, 60, 120} {
		for _, s := range AllSetups() {
			b.Run(fmt.Sprintf("h=%.0f/%s", h, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := runSetup(b, s, workload.Chicago, sc,
						func(p *workload.Params) { p.PredictiveTime = h })
					b.ReportMetric(m.QueryIO, "queryIO/op")
				}
			})
		}
	}
}

func BenchmarkFig24RectPredictiveTime(b *testing.B) {
	sc := benchScale()
	for _, h := range []float64{20, 60, 120} {
		for _, s := range AllSetups() {
			b.Run(fmt.Sprintf("h=%.0f/%s", h, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := runSetup(b, s, workload.Chicago, sc,
						func(p *workload.Params) {
							p.PredictiveTime = h
							p.UseRectQueries = true
						})
					b.ReportMetric(m.QueryIO, "queryIO/op")
				}
			})
		}
	}
}

// --- Operation micro-benchmarks -------------------------------------------------

// randomObjects is a two-direction fleet on the full 100 km domain.
func randomObjects(n int, seed int64) []model.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]model.Object, n)
	for i := range objs {
		speed := 20 + rng.Float64()*80
		if rng.Intn(2) == 0 {
			speed = -speed
		}
		vel := geom.V(speed, rng.NormFloat64()*2)
		if i%2 == 0 {
			vel = geom.V(rng.NormFloat64()*2, speed)
		}
		objs[i] = model.Object{
			ID:  model.ObjectID(i + 1),
			Pos: geom.V(rng.Float64()*100000, rng.Float64()*100000),
			Vel: vel,
			T:   0,
		}
	}
	return objs
}

// loadedIndex builds setup s with default tree settings over the fleet
// (VP setups analyze the fleet's own velocities) and inserts every object.
func loadedIndex(b *testing.B, s Setup, objs []model.Object, bufferPages int) *Index {
	b.Helper()
	sp := spec{setup: s, domain: geom.R(0, 0, 100000, 100000), seed: 1, buffer: bufferPages}
	if s.IsVP() {
		sp.sample = make([]geom.Vec2, len(objs))
		for i, o := range objs {
			sp.sample[i] = o.Vel
		}
	}
	idx, err := sp.build()
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range objs {
		if err := idx.Insert(o); err != nil {
			b.Fatal(err)
		}
	}
	return idx
}

func benchInsert(b *testing.B, s Setup) {
	objs := randomObjects(b.N, 1)
	idx := loadedIndex(b, s, nil, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Insert(objs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertTPRStar(b *testing.B) { benchInsert(b, SetupTPR) }
func BenchmarkInsertBx(b *testing.B)      { benchInsert(b, SetupBx) }

func benchQuery(b *testing.B, s Setup) {
	idx := loadedIndex(b, s, randomObjects(20000, 2), 64)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := geom.V(rng.Float64()*100000, rng.Float64()*100000)
		q := model.RangeQuery{Kind: model.TimeSlice, Circle: geom.Circle{C: c, R: 500}, Now: 0, T0: 60}
		q.Rect = q.Circle.Bound()
		if _, err := idx.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryTPRStar(b *testing.B)   { benchQuery(b, SetupTPR) }
func BenchmarkQueryTPRStarVP(b *testing.B) { benchQuery(b, SetupTPRVP) }
func BenchmarkQueryBx(b *testing.B)        { benchQuery(b, SetupBx) }
func BenchmarkQueryBxVP(b *testing.B)      { benchQuery(b, SetupBxVP) }

// BenchmarkKNN measures k-nearest-neighbor search (the query type the
// paper's circular ranges act as a filter step for) across all four index
// configurations.
func BenchmarkKNN(b *testing.B) {
	objs := randomObjects(20000, 8)
	for _, s := range AllSetups() {
		b.Run(string(s), func(b *testing.B) {
			idx := loadedIndex(b, s, objs, 64)
			knn := idx.Index.(model.KNNIndex)
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := model.KNNQuery{
					Center: geom.V(rng.Float64()*100000, rng.Float64()*100000),
					K:      10, Now: 0, T: 60,
				}
				if _, err := knn.SearchKNN(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVelocityAnalyzer10K(b *testing.B) {
	objs := randomObjects(10000, 4)
	sample := make([]geom.Vec2, len(objs))
	for i, o := range objs {
		sample[i] = o.Vel
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(sample, core.AnalyzerConfig{K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMovingRangeQueries exercises the third query type end to end
// (the paper's evaluation shows time-slice; the system supports all three).
func BenchmarkMovingRangeQueries(b *testing.B) {
	sc := benchScale()
	for _, s := range []Setup{SetupTPR, SetupTPRVP} {
		b.Run(string(s), func(b *testing.B) {
			p := workload.DefaultParams(workload.Chicago, sc.Objects)
			p.Domain = geom.R(0, 0, sc.DomainSide, sc.DomainSide)
			p.SampleSize = sc.Objects
			gen, err := workload.NewGenerator(p)
			if err != nil {
				b.Fatal(err)
			}
			idx, err := Build(s, gen, sc.Buffer)
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range gen.Initial() {
				if err := idx.Insert(o); err != nil {
					b.Fatal(err)
				}
			}
			queries := gen.MovingQueries(200, 30)
			before := idx.reads()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(idx.reads()-before)/float64(b.N), "queryIO/op")
		})
	}
}

// --- Ablation benches -----------------------------------------------------------

// runBx replays a Chicago workload on an unpartitioned Bx-tree whose
// configuration mut adjusts, and reports its query I/O.
func runBx(b *testing.B, sc Scale, mut func(*spec)) {
	b.Helper()
	p := benchParams(workload.Chicago, sc)
	p.SampleSize = workload.DefaultParams(workload.Chicago, sc.Objects).SampleSize
	for i := 0; i < b.N; i++ {
		gen, err := workload.NewGenerator(p)
		if err != nil {
			b.Fatal(err)
		}
		sp := specFor(SetupBx, gen, sc.Buffer)
		mut(&sp)
		idx, err := sp.build()
		if err != nil {
			b.Fatal(err)
		}
		m, err := RunOn(idx, SetupBx, gen)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.QueryIO, "queryIO/op")
	}
}

// BenchmarkAblationCurve compares Hilbert against Z-order under the Bx-tree
// (the paper permits either; its configuration uses Hilbert).
func BenchmarkAblationCurve(b *testing.B) {
	sc := benchScale()
	for _, zorder := range []bool{false, true} {
		name := "hilbert"
		if zorder {
			name = "zorder"
		}
		b.Run(name, func(b *testing.B) {
			runBx(b, sc, func(sp *spec) { sp.bx.UseZOrder = zorder })
		})
	}
}

// BenchmarkAblationHistogramResolution sweeps the Bx velocity-histogram
// grid (the paper uses 1000x1000; resolution trades enlargement precision
// against CPU).
func BenchmarkAblationHistogramResolution(b *testing.B) {
	sc := benchScale()
	for _, cells := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			runBx(b, sc, func(sp *spec) { sp.bx.HistogramCells = cells })
		})
	}
}

// BenchmarkAblationOutlierPartition compares the automatic tau against
// tau=infinity (no outlier partition at all): Section 5.2's design choice.
func BenchmarkAblationOutlierPartition(b *testing.B) {
	sc := benchScale()
	for _, mode := range []string{"auto-tau", "no-outlier-partition"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewGenerator(benchParams(workload.SanFrancisco, sc))
				if err != nil {
					b.Fatal(err)
				}
				idx, err := Build(SetupTPRVP, gen, sc.Buffer)
				if err != nil {
					b.Fatal(err)
				}
				if mode == "no-outlier-partition" {
					vp := idx.Index.(*core.Manager)
					for pi := 0; pi < vp.NumPartitions()-1; pi++ {
						vp.SetTau(pi, 1e18)
					}
				}
				m, err := RunOn(idx, SetupTPRVP, gen)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.QueryIO, "queryIO/op")
			}
		})
	}
}
