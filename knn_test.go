package vpindex_test

import (
	"math"
	"math/rand"
	"testing"

	vpindex "repro"
	"repro/internal/model"
	"repro/internal/workload"
)

// knnOracleCheck verifies an index's kNN results against the brute-force
// oracle. Distances must agree exactly in order; ids may differ only
// within exact-tie groups.
func knnOracleCheck(t *testing.T, search func(vpindex.KNNQuery) ([]vpindex.Neighbor, error),
	oracle *model.BruteForce, q vpindex.KNNQuery) {
	t.Helper()
	got, err := search(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.SearchKNN(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("kNN returned %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
			t.Fatalf("neighbor %d: dist %g vs oracle %g", i, got[i].Dist, want[i].Dist)
		}
	}
	// Non-tied prefixes must agree on ids too.
	for i := range got {
		if got[i].ID != want[i].ID {
			// Permitted only when distances tie exactly.
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
				t.Fatalf("neighbor %d: id %d vs %d at non-tied distance", i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestKNNAgainstOracleAllIndexes checks kNN answers of the harness's four
// setups and of a velocity-partitioned Store against the brute-force
// oracle on a road-network fleet.
func TestKNNAgainstOracleAllIndexes(t *testing.T) {
	p := workload.DefaultParams(workload.Chicago, 3000)
	p.Seed = 5
	gen, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.NewBruteForce()
	for _, o := range gen.Initial() {
		_ = oracle.Insert(o)
	}
	for _, su := range oracleSetups {
		t.Run(su.name, func(t *testing.T) {
			idx := buildOracleIndex(t, su, gen, 200,
				vpindex.WithVelocitySample(gen.VelocitySample(p.SampleSize)),
				vpindex.WithSeed(1),
			)
			if err := idx.load(gen.Initial()); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			for trial := 0; trial < 25; trial++ {
				q := vpindex.KNNQuery{
					Center: vpindex.V(rng.Float64()*100000, rng.Float64()*100000),
					K:      1 + rng.Intn(20),
					Now:    0,
					T:      rng.Float64() * 120,
				}
				knnOracleCheck(t, idx.knn, oracle, q)
			}
		})
	}
}

func TestKNNEdgeCases(t *testing.T) {
	idx, err := vpindex.Open(vpindex.WithKind(vpindex.TPRStar))
	if err != nil {
		t.Fatal(err)
	}
	// Empty index.
	ns, err := idx.SearchKNN(vpindex.KNNQuery{Center: vpindex.V(0, 0), K: 3, Now: 0, T: 10})
	if err != nil || len(ns) != 0 {
		t.Fatalf("empty kNN: %v %v", ns, err)
	}
	// Invalid queries.
	if _, err := idx.SearchKNN(vpindex.KNNQuery{K: 0, T: 1}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := idx.SearchKNN(vpindex.KNNQuery{K: 1, Now: 5, T: 1}); err == nil {
		t.Fatal("past kNN accepted")
	}
	// k exceeding population returns everything.
	for i := 0; i < 5; i++ {
		_ = idx.Report(vpindex.Object{ID: vpindex.ObjectID(i + 1),
			Pos: vpindex.V(float64(i)*100, 0), Vel: vpindex.V(1, 0), T: 0})
	}
	ns, err = idx.SearchKNN(vpindex.KNNQuery{Center: vpindex.V(0, 0), K: 50, Now: 0, T: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 5 {
		t.Fatalf("k>n returned %d", len(ns))
	}
	// Results in ascending distance order.
	for i := 1; i < len(ns); i++ {
		if ns[i].Dist < ns[i-1].Dist {
			t.Fatal("neighbors out of order")
		}
	}
}

func TestKNNBxSparseFallback(t *testing.T) {
	// A Bx kNN where almost everything is far away forces radius doubling
	// (and possibly the full-scan fallback).
	idx, err := vpindex.Open(vpindex.WithKind(vpindex.Bx))
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.NewBruteForce()
	// 10 objects clustered in the far corner.
	for i := 0; i < 10; i++ {
		o := vpindex.Object{
			ID:  vpindex.ObjectID(i + 1),
			Pos: vpindex.V(99000+float64(i)*10, 99000),
			Vel: vpindex.V(1, 0),
			T:   0,
		}
		_ = idx.Report(o)
		_ = oracle.Insert(o)
	}
	q := vpindex.KNNQuery{Center: vpindex.V(0, 0), K: 3, Now: 0, T: 60}
	knnOracleCheck(t, idx.SearchKNN, oracle, q)
}
