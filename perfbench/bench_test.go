package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

// Test scale: small enough that every workload runs in about a second.
const (
	testObjects = 2000
	testSeconds = 0.4
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []int64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{1, 10}, {10, 10}, {11, 20}, {50, 50}, {51, 60}, {99, 100}, {100, 100}} {
		if got := percentile(append([]int64(nil), samples...), c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{name: lCoreSearch, parent: -1, start: 0, end: 100},  // 0
		{name: lIndexSearch, parent: 0, start: 10, end: 50},  // 1: overlaps 2
		{name: lIndexSearch, parent: 0, start: 30, end: 70},  // 2
		{name: lIndexSearch, parent: 0, start: 90, end: 120}, // 3: runs past its parent
		{name: lStorageRead, parent: 1, start: 20, end: 25},  // 4: nested in 1
		{name: lStorageRead, parent: 1, start: 22, end: 40},  // 5: overlaps 4
		{name: lWALAppend, parent: -1, start: 200, end: 230}, // 6: a second root
	}
	// 0: children cover [10,70] and [90,100] = 70 of 100.
	// 1: children cover [20,40] = 20 of 40.
	want := []int64{30, 20, 40, 30, 5, 18, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestOpMixAndOwnership(t *testing.T) {
	const total, clients = 20000, 2
	for _, sp := range specs {
		f, err := newFleet(sp, testObjects, total, clients, 1)
		if err != nil {
			t.Fatal(err)
		}
		var n [numKinds]int
		for c, ops := range f.streams {
			for _, o := range ops {
				n[o.kind]++
				if o.kind == opReport && int(uint64(o.obj.ID)%clients) != c {
					t.Fatalf("%s: object %d reported by client %d", sp.name, o.obj.ID, c)
				}
			}
		}
		want := [numKinds]float64{sp.report, sp.search, 1 - sp.report - sp.search}
		for k := range n {
			got := float64(n[k]) / total
			// Three standard deviations of a binomial share.
			if tol := 3 * math.Sqrt(want[k]*(1-want[k])/total); math.Abs(got-want[k]) > tol+1e-9 {
				t.Errorf("%s: %s share %.4f, want %.4f ± %.4f", sp.name, kindNames[k], got, want[k], tol)
			}
		}
	}
}

func TestSeedReproducesStream(t *testing.T) {
	sp, _ := lookupSpec("road-ingest")
	a, err := newFleet(sp, testObjects, 5000, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newFleet(sp, testObjects, 5000, 2, 7)
	c, _ := newFleet(sp, testObjects, 5000, 2, 8)
	if !reflect.DeepEqual(a.streams, b.streams) || !reflect.DeepEqual(a.initial, b.initial) {
		t.Error("the same seed produced different inputs")
	}
	if reflect.DeepEqual(a.streams, c.streams) {
		t.Error("a different seed produced the same op streams")
	}
}

func layerMetrics(t *testing.T, sp spec, objects int, seed int64) map[string]float64 {
	t.Helper()
	res, err := runWorkload(sp, config{objects: objects, seconds: testSeconds, seed: seed, trace: true, setups: 1, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d of %d failed: %v", sp.name, res.failed, res.attempted, res.notes)
	}
	m := map[string]float64{}
	for _, x := range res.metrics {
		m[x.name] = x.value
	}
	return m
}

// With one client and a fixed op count the WAL and replay counts are exact,
// so the same seed must reproduce them. Search page misses repeat only to
// within a few percent: the Store's bootstrap cutover migrates each shard's
// objects in Go map order, so the partition trees' page layout differs from
// one set-up to the next.
func TestExactCountsRepeat(t *testing.T) {
	query, _ := lookupSpec("road-query")
	query.fixedCount = true
	durable, _ := lookupSpec("road-durable")
	for _, c := range []struct {
		sp      spec
		objects int
		tol     map[string]float64 // metric -> allowed relative difference
	}{
		// The index must outgrow the default 50-page pools to miss at all.
		{query, 25_000, map[string]float64{"search_io_pages": 0.05}},
		{durable, testObjects, map[string]float64{"wal_bytes_per_report": 0, "durability.replayed_records": 0}},
	} {
		a, b := layerMetrics(t, c.sp, c.objects, 3), layerMetrics(t, c.sp, c.objects, 3)
		for name, tol := range c.tol {
			if a[name] == 0 || math.Abs(a[name]-b[name]) > tol*a[name] {
				t.Errorf("%s %s: %v then %v", c.sp.name, name, a[name], b[name])
			}
		}
	}
}

// Every workload prints every declared metric with its unit in both modes,
// and its answers check out.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, sp := range specs {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", sp.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{objects: testObjects, seconds: testSeconds, seed: 5, trace: trace == 1, setups: 2, workDir: t.TempDir()}
				if err := report(sp, cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v", d.name, m.Value)
					}
				}
			})
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, specs[i].name)
		}
	}
}

func TestSameNeighborsToleratesTies(t *testing.T) {
	n := func(id int, d float64) model.Neighbor { return model.Neighbor{ID: model.ObjectID(id), Dist: d} }
	base := []model.Neighbor{n(1, 1), n(2, 2), n(3, 2), n(4, 3), n(5, 3)}
	for _, c := range []struct {
		name string
		b    []model.Neighbor
		want bool
	}{
		{"same", []model.Neighbor{n(1, 1), n(2, 2), n(3, 2), n(4, 3), n(5, 3)}, true},
		{"tie reordered", []model.Neighbor{n(1, 1), n(3, 2), n(2, 2), n(5, 3), n(4, 3)}, true},
		{"other object tied at the k-th distance", []model.Neighbor{n(1, 1), n(2, 2), n(3, 2), n(4, 3), n(9, 3)}, true},
		{"other object inside the k-th distance", []model.Neighbor{n(1, 1), n(2, 2), n(9, 2), n(4, 3), n(5, 3)}, false},
		{"other distance", []model.Neighbor{n(1, 1), n(2, 2), n(3, 2), n(4, 3), n(5, 3.5)}, false},
		{"shorter", base[:4], false},
	} {
		if got := sameNeighbors(base, c.b); got != c.want {
			t.Errorf("%s: sameNeighbors = %v, want %v", c.name, got, c.want)
		}
	}
}
