// Command perfbench is the repository's benchmark: it drives the public
// Store API through three road-network workloads, checks the answers, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics of a
// traced replica (traced run). See README.md.
//
//	perfbench --workload road-query --seed 1 --seconds 12 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics (a test keeps the two in step).
type metricDef struct{ name, unit, better string }

// endToEnd is what a user of the Store sees; every workload reports all of
// them from its untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"report_p50_us", "us", "lower"},
	{"report_p95_us", "us", "lower"},
	{"search_p50_us", "us", "lower"},
	{"knn_p50_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// perLayer comes from the traced run. A layer a workload does not run
// reports 0.
var perLayer = []metricDef{
	{"search_p95_us", "us", "lower"},
	{"knn_p95_us", "us", "lower"},
	{"report_p99_us", "us", "lower"},
	{"search_p99_us", "us", "lower"},
	{"knn_p99_us", "us", "lower"},
	{"search_io_pages", "pages", "lower"},
	{"checkpoint_ms", "ms", "lower"},
	{"recovery_s", "s", "lower"},
	{"wal_bytes_per_report", "bytes", "lower"},
	{"disk_bytes_per_object", "bytes", "lower"},
	{"store.residual_us.report", "us", "lower"},
	{"store.residual_us.search", "us", "lower"},
	{"store.residual_us.knn", "us", "lower"},
	{"store.trees_per_search", "count", "lower"},
	{"core.route_us.report", "us", "lower"},
	{"core.route_us.search", "us", "lower"},
	{"core.analyze_ms", "ms", "lower"},
	{"core.partition_skew", "ratio", "lower"},
	{"index.update_us", "us", "lower"},
	{"index.search_us", "us", "lower"},
	{"index.knn_us", "us", "lower"},
	{"index.calls_per_report", "count", "lower"},
	{"index.alloc_bytes_per_report", "bytes", "lower"},
	{"storage.hit_ratio", "ratio", "higher"},
	{"storage.reads_per_report", "pages", "lower"},
	{"storage.writes_per_report", "pages", "lower"},
	{"storage.read_us", "us", "lower"},
	{"storage.write_us", "us", "lower"},
	{"storage.index_pages", "pages", "lower"},
	{"storage.cache_pages", "pages", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.commit_us", "us", "lower"},
	{"durability.checkpoint_pause_us", "us", "lower"},
	{"durability.checkpoint_bytes", "bytes", "lower"},
	{"durability.replayed_records", "count", "lower"},
	{"monitor.candidates_per_report", "count", "lower"},
	{"monitor.filter_us", "us", "lower"},
	{"monitor.match_us", "us", "lower"},
	{"monitor.events_per_report", "count", "lower"},
	{"monitor.dropped_events", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

func main() {
	if err := benchmark(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// The scale every run measures. Tests drive runWorkload at a smaller one.
const (
	fleetObjects = 50_000
	setUps       = 3 // set-ups timed in an untraced run; setup_s is their median
)

func benchmark(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name: road-query, road-ingest or road-durable")
	seed := fl.Int64("seed", 1, "seed of the fleet and the op stream")
	seconds := fl.Float64("seconds", 12, "measured time of a run (road-durable runs 12,000 ops per second of it)")
	trace := fl.Int("trace", 0, "1 runs the traced replica and prints per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	sp, err := lookupSpec(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	runDir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	cfg := config{objects: fleetObjects, seconds: *seconds, seed: *seed, trace: *trace == 1, setups: setUps, workDir: runDir}
	return report(sp, cfg, stdout)
}

// report prints the provenance line, runs the workload, and prints its
// notes and, last, the result line.
func report(sp spec, cfg config, stdout io.Writer) error {
	prov := provenance(cfg, sp.name)
	pj, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(pj))

	res, err := runWorkload(sp, cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out, err := resultJSON(res, defs)
	if err != nil {
		return err
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// resultJSON renders the final line: exactly the metrics in defs, each
// measured once, in its declared unit.
func resultJSON(res *result, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	got := map[string]metric{}
	for _, m := range res.metrics {
		if _, dup := got[m.name]; dup {
			return nil, fmt.Errorf("metric %s measured twice", m.name)
		}
		got[m.name] = m
	}
	metrics := map[string]value{}
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		if m.unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.unit, d.unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, m.value)
		}
		metrics[d.name] = value{m.value, m.unit}
		delete(got, d.name)
	}
	for n := range got {
		return nil, fmt.Errorf("metric %s is not declared for this mode", n)
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
}

// provenance records what ran where.
func provenance(cfg config, workload string) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"objects":       cfg.objects,
		"trace":         cfg.trace,
		"git_sha":       gitSHA(),
		"source_sha256": sourceHash("."),
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"data_dir_fs":   fsType(cfg.workDir),
		"date":          time.Now().UTC().Format(time.RFC3339),
	}
}

// gitSHA is the checked-out commit, or "none" outside a git work tree.
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod under root (hidden
// directories skipped), so a checkout without git history still names the
// code it measured.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
