package main

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/workload"
)

// knnK is the k of every SearchKNN.
const knnK = 10

// spec is one named workload: a closed-loop op mix over the Chicago
// road-network fleet, driven by one client, plus the few Store settings it
// departs from the defaults with. Everything else runs on the Store's
// default options, so a change of a default is measured.
type spec struct {
	name string

	// report/search shares of the op mix; the rest is SearchKNN.
	report, search float64

	// subs standing subscriptions are registered during set-up.
	subs int
	// wholeIndexPool sizes every buffer pool to hold the whole index.
	wholeIndexPool bool
	// durable runs the Store with a data directory and SyncNone.
	durable bool
	// ckptShare is the fleet share of reports between two Checkpoint calls
	// (durable only).
	ckptShare float64

	// opsPerSec sizes the workload. A time-bounded workload pre-generates
	// opsPerSec × seconds ops, a ceiling well above today's rate; a
	// fixed-count workload (durable) runs exactly that many.
	opsPerSec  int
	fixedCount bool
}

var specs = []spec{
	{
		name:   "road-query",
		report: 0.10, search: 0.80,
		opsPerSec: 20_000,
	},
	{
		name:   "road-ingest",
		report: 0.95, search: 0.04,
		subs: 500, wholeIndexPool: true,
		opsPerSec: 40_000,
	},
	{
		name:   "road-durable",
		report: 0.95, search: 0.04,
		durable: true, ckptShare: 0.1,
		opsPerSec: 12_000, fixedCount: true,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opReport opKind = iota
	opSearch
	opKNN
	numKinds
)

var kindNames = [numKinds]string{"report", "search", "knn"}

// op is one pre-generated client request. For a report, obj is the new
// object state; for a query, obj.Pos is the query center and obj.T the issue
// time (the stream time of the latest report before it).
type op struct {
	kind opKind
	obj  model.Object
}

// fleet is the generated input of one run: the initial population, each
// client's op stream, and the generator's Table 1 query settings.
type fleet struct {
	domain  geom.Rect
	initial []model.Object
	streams [][]op

	radius  float64 // m, circular range queries and subscriptions
	horizon float64 // ts between a query's issue time and its evaluation time
}

func (f *fleet) rangeQuery(o op) model.RangeQuery {
	c := geom.Circle{C: o.obj.Pos, R: f.radius}
	return model.RangeQuery{Kind: model.TimeSlice, Circle: c, Rect: c.Bound(), Now: o.obj.T, T0: o.obj.T + f.horizon}
}

func (f *fleet) knnQuery(o op) model.KNNQuery {
	return model.KNNQuery{Center: o.obj.Pos, K: knnK, Now: o.obj.T, T: o.obj.T + f.horizon}
}

// newFleet builds the Chicago fleet of n objects from seed and draws total
// ops from the update stream and the query mix. Reports go to the client
// that owns the object (ID mod clients), so per-object order and the final
// state do not depend on how the clients interleave; queries are dealt
// round-robin.
func newFleet(sp spec, n, total, clients int, seed int64) (*fleet, error) {
	p := workload.DefaultParams(workload.Chicago, n)
	p.Seed = seed
	// The update stream must outlast the op budget; Duration only bounds it.
	p.Duration = 1e12
	gen, err := workload.NewGenerator(p)
	if err != nil {
		return nil, err
	}
	f := &fleet{domain: p.Domain, initial: gen.Initial(), streams: make([][]op, clients), radius: p.QueryRadius, horizon: p.PredictiveTime}
	for c := range f.streams {
		f.streams[c] = make([]op, 0, total/clients+1)
	}
	rng := newRand(seed, 1)
	now, queries := 0.0, 0
	for i := 0; i < total; i++ {
		u := rng.Float64()
		if u < sp.report {
			ev, ok := gen.NextUpdate()
			if !ok {
				return nil, fmt.Errorf("update stream ended after %d ops", i)
			}
			now = ev.T
			c := int(uint64(ev.New.ID) % uint64(clients))
			f.streams[c] = append(f.streams[c], op{kind: opReport, obj: ev.New})
			continue
		}
		k := opSearch
		if u >= sp.report+sp.search {
			k = opKNN
		}
		c := queries % clients
		queries++
		f.streams[c] = append(f.streams[c], op{kind: k, obj: model.Object{Pos: randPoint(rng, p.Domain), T: now}})
	}
	return f, nil
}

// newRand derives the generator for one use (stream) of the run's seed.
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

func randPoint(rng *rand.Rand, d geom.Rect) geom.Vec2 {
	return geom.V(d.MinX+rng.Float64()*d.Width(), d.MinY+rng.Float64()*d.Height())
}
