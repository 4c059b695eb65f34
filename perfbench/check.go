package main

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Verification queries run against the final state at the end of a run.
const (
	verifySearches = 40
	verifyKNN      = 10
)

// verify checks the Store's final state against model.BruteForce over the
// acknowledged objects: its size, sampled range queries and sampled kNN
// queries evaluated after the last report. It also fails the run if the
// event stream dropped anything. Every check counts as attempted; every
// mismatch as failed.
func (r *run) verify() {
	want := r.expected()
	bf := model.NewBruteForce()
	latest := 0.0
	for _, o := range want {
		bf.Insert(o)
		latest = math.Max(latest, o.T)
	}
	fail := func(format string, args ...any) {
		r.extraKO++
		if len(r.res.notes) < 20 {
			r.res.notes = append(r.res.notes, fmt.Sprintf(format, args...))
		}
	}
	r.extraOK++
	if n := r.store.Len(); n != len(want) {
		fail("store holds %d objects, %d acknowledged", n, len(want))
	}
	rng := newRand(r.cfg.seed, 7)
	for i := 0; i < verifySearches+verifyKNN; i++ {
		o := op{kind: opSearch, obj: model.Object{Pos: randPoint(rng, r.fl.domain), T: latest}}
		r.extraOK++
		if i >= verifySearches {
			o.kind = opKNN
			q := r.fl.knnQuery(o)
			got, err := r.store.SearchKNN(q)
			if err != nil {
				fail("verify kNN: %v", err)
				continue
			}
			if msg := checkKNN(bf, q, got); msg != "" {
				fail("verify kNN at %v: %s", q.Center, msg)
			}
			continue
		}
		q := r.fl.rangeQuery(o)
		got, err := r.store.Search(q)
		if err != nil {
			fail("verify search: %v", err)
			continue
		}
		exp, _ := bf.Search(q)
		if !sameIDs(got, exp) {
			fail("verify search at %v: store %d ids, brute force %d", q.Circle.C, len(got), len(exp))
		}
	}
	if r.drain != nil {
		r.extraOK++
		if n := r.store.DroppedEvents(); n != 0 {
			fail("%d subscription events dropped", n)
		}
	}
}

// checkKNN accepts got when it has the brute-force answer's length, no
// repeated ids, each reported distance matches the object's true distance,
// and no reported object is farther than the brute-force k-th neighbor
// (ties at the k-th distance may pick either object).
func checkKNN(bf *model.BruteForce, q model.KNNQuery, got []model.Neighbor) string {
	exp, _ := bf.SearchKNN(q)
	if len(got) != len(exp) {
		return fmt.Sprintf("%d neighbors, want %d", len(got), len(exp))
	}
	if len(exp) == 0 {
		return ""
	}
	kth := exp[len(exp)-1].Dist
	seen := map[model.ObjectID]bool{}
	for _, n := range got {
		o, ok := bf.Get(n.ID)
		if !ok || seen[n.ID] {
			return fmt.Sprintf("unknown or repeated id %d", n.ID)
		}
		seen[n.ID] = true
		d := o.PosAt(q.T).DistTo(q.Center)
		if math.Abs(d-n.Dist) > 1e-6*math.Max(1, d) || d > kth+1e-6*math.Max(1, kth) {
			return fmt.Sprintf("id %d at distance %g (reported %g, k-th %g)", n.ID, d, n.Dist, kth)
		}
	}
	return ""
}
