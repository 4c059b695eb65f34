package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_io.txt from the current harness")

// goldenIO renders the harness's deterministic page-count outputs at
// tinyScale and seed 1: Run metrics for every setup on every dataset, the
// Fig. 7 summary and the Fig. 17 tau sweep on Chicago. Wall-clock fields
// are left out; everything printed is a pure function of the workload and
// the index code.
func goldenIO(t *testing.T) string {
	t.Helper()
	sc := tinyScale()
	var b strings.Builder
	b.WriteString("## Run metrics (tinyScale, seed 1)\n")
	for _, ds := range workload.Datasets() {
		for _, s := range AllSetups() {
			gen, err := workload.NewGenerator(params(ds, sc, 1))
			if err != nil {
				t.Fatal(err)
			}
			m, err := Run(s, gen, sc.Buffer)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, s, err)
			}
			fmt.Fprintf(&b, "%s %s queries=%d updates=%d queryIO=%.6f updateIO=%.6f avgResults=%.6f\n",
				ds, s, m.Queries, m.Updates, m.QueryIO, m.UpdateIO, m.AvgResults)
		}
	}
	_, fig7, err := RunFig7(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(fig7.Format())
	fig17, err := RunFig17(workload.Chicago, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(fig17.Format())
	return b.String()
}

// TestGoldenIO pins the harness's I/O counts byte for byte: any change to
// how the four setups are built, loaded or measured shows up here. Regenerate with `go test ./internal/bench -run TestGoldenIO
// -update` only for a deliberate change to the index layers.
func TestGoldenIO(t *testing.T) {
	got := goldenIO(t)
	path := filepath.Join("testdata", "golden_io.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("harness I/O drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
