package vpindex_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	vpindex "repro"
)

// coalOpts is the base configuration for the write-coalescing tests: a
// sharded, velocity-partitioned store with the coalescer on a small window
// and batch cap so multi-slot drains actually happen under test concurrency.
func coalOpts(extra ...vpindex.Option) []vpindex.Option {
	opts := []vpindex.Option{
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(testSample(400, 19)),
		vpindex.WithSeed(7),
		vpindex.WithWriteCoalescing(100*time.Microsecond, 8),
	}
	return append(opts, extra...)
}

// TestCoalescedReportBasic: the coalesced path keeps Report's contract for a
// single caller — upsert semantics, Get/Len/Search visibility as soon as the
// call returns — and a durable coalesced store recovers every acknowledged
// report after Close.
func TestCoalescedReportBasic(t *testing.T) {
	dir := t.TempDir()
	store, err := vpindex.Open(coalOpts(vpindex.WithDataDir(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	want := map[vpindex.ObjectID]vpindex.Object{}
	for i := 1; i <= 40; i++ {
		o := testObject(i%25+1, rng) // IDs repeat: later reports must win
		o.T = float64(i)
		if err := store.Report(o); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		want[o.ID] = o
		got, ok := store.Get(o.ID)
		if !ok || got != o {
			t.Fatalf("report %d not visible at return: got %+v ok=%v", i, got, ok)
		}
	}
	if store.Len() != len(want) {
		t.Fatalf("len = %d, want %d", store.Len(), len(want))
	}
	if ing, ok := store.IngestStats(); !ok || ing.CoalescedRecords != 40 {
		t.Fatalf("ingest stats = %+v ok=%v, want 40 coalesced records", ing, ok)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	recovered, err := vpindex.Open(coalOpts(vpindex.WithDataDir(dir))...)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer recovered.Close()
	if recovered.Len() != len(want) {
		t.Fatalf("recovered len = %d, want %d", recovered.Len(), len(want))
	}
	for id, o := range want {
		got, ok := recovered.Get(id)
		if !ok || got != o {
			t.Fatalf("recovered object %d = %+v ok=%v, want %+v", id, got, ok, o)
		}
	}
}

// TestCoalescerDifferentialOracle is the coalescer's -race differential
// oracle: N concurrent writers drive the coalesced store with a mixed
// Report/Remove/ReportBatch/Checkpoint stream (the non-Report verbs crossing
// the flush barrier) while a maintenance goroutine forces repartition swaps
// under the load; each writer owns a disjoint ID range, so replaying its
// interleaving through a brute-force shadow map is exact. The final store
// state must equal the shadow, and — for the durable variant — must survive
// a Close/reopen through the coalesced batch records in the log.
func TestCoalescerDifferentialOracle(t *testing.T) {
	const (
		writers   = 4
		perWriter = 300
		idsPer    = 200
	)
	run := func(t *testing.T, dir string) {
		extra := []vpindex.Option{}
		if dir != "" {
			extra = append(extra,
				vpindex.WithDataDir(dir),
				vpindex.WithSyncPolicy(vpindex.SyncGroupCommit(100*time.Microsecond)),
			)
		}
		store, err := vpindex.Open(coalOpts(extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg      sync.WaitGroup
			written atomic.Int64
		)
		shadow := make([]map[vpindex.ObjectID]vpindex.Object, writers)
		errs := make(chan error, writers+1)
		for w := 0; w < writers; w++ {
			shadow[w] = make(map[vpindex.ObjectID]vpindex.Object)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(900 + w)))
				base := w * idsPer
				for i := 0; i < perWriter; i++ {
					id := base + 1 + rng.Intn(idsPer)
					o := testObject(id, rng)
					o.T = float64(i) / 8
					switch {
					case i%23 == 11: // Remove: a flush-barrier verb
						err := store.Remove(o.ID)
						if err != nil && !errors.Is(err, vpindex.ErrNotFound) {
							errs <- fmt.Errorf("writer %d remove: %w", w, err)
							return
						}
						if err == nil {
							delete(shadow[w], o.ID)
						}
					case i%23 == 17: // ReportBatch: a flush-barrier verb
						o2 := testObject(base+1+rng.Intn(idsPer), rng)
						o2.T = o.T
						if err := store.ReportBatch([]vpindex.Object{o, o2}); err != nil {
							errs <- fmt.Errorf("writer %d report batch: %w", w, err)
							return
						}
						// Same ID means same shard: o2 applies after o.
						shadow[w][o.ID] = o
						shadow[w][o2.ID] = o2
					case i%23 == 5 && dir != "": // Checkpoint: a flush barrier
						if err := store.Checkpoint(); err != nil {
							errs <- fmt.Errorf("writer %d checkpoint: %w", w, err)
							return
						}
					default:
						if err := store.Report(o); err != nil {
							errs <- fmt.Errorf("writer %d report: %w", w, err)
							return
						}
						shadow[w][o.ID] = o
					}
					written.Add(1)
				}
			}(w)
		}
		// Force repartition swaps while the coalescer drains, so batches
		// land across epoch cutovers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			total := int64(writers * perWriter)
			for _, obj := range []vpindex.PartitionObjective{
				vpindex.ObjectiveSpeed, vpindex.ObjectiveDVA,
			} {
				for written.Load() < total/3 {
					time.Sleep(time.Millisecond)
				}
				if err := store.RepartitionTo(obj); err != nil {
					errs <- fmt.Errorf("RepartitionTo(%v): %w", obj, err)
					return
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		verify := func(s *vpindex.Store, when string) {
			t.Helper()
			want := map[vpindex.ObjectID]vpindex.Object{}
			for w := range shadow {
				for id, o := range shadow[w] {
					want[id] = o
				}
			}
			if s.Len() != len(want) {
				t.Fatalf("%s: len = %d, want %d", when, s.Len(), len(want))
			}
			for id, o := range want {
				got, ok := s.Get(id)
				if !ok || got != o {
					t.Fatalf("%s: object %d = %+v ok=%v, want %+v", when, id, got, ok, o)
				}
			}
			found, err := s.Search(wholeDomain())
			if err != nil {
				t.Fatalf("%s: search: %v", when, err)
			}
			if len(found) != len(want) {
				t.Fatalf("%s: search found %d, want %d", when, len(found), len(want))
			}
			for _, id := range found {
				if _, ok := want[id]; !ok {
					t.Fatalf("%s: search returned unknown id %d", when, id)
				}
			}
		}
		verify(store, "live")
		if ing, ok := store.IngestStats(); !ok || ing.CoalescedRecords == 0 || ing.FlushBarriers == 0 {
			t.Fatalf("ingest stats = %+v ok=%v, want coalesced records and barriers", ing, ok)
		}
		if dir == "" {
			return
		}
		if err := store.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		recovered, err := vpindex.Open(coalOpts(vpindex.WithDataDir(dir))...)
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		defer recovered.Close()
		verify(recovered, "recovered")
	}
	t.Run("memory", func(t *testing.T) { run(t, "") })
	t.Run("durable", func(t *testing.T) { run(t, t.TempDir()) })
}

// TestKillPointCoalescedOracle extends the kill-point matrix to the
// coalesced write path: concurrent writers stream unique-ID reports through
// the coalescer while the injector kills the process image at every
// successive fsync. After recovery, every acknowledged report must be
// present with its exact value (acked = survives), and nothing may appear
// that was not at least submitted — a recovered ID is either acked or the
// in-flight op that died mid-commit (unacked ops otherwise leave no trace).
func TestKillPointCoalescedOracle(t *testing.T) {
	const (
		writers   = 4
		perWriter = 24
	)
	obj := func(w, i int) vpindex.Object {
		rng := rand.New(rand.NewSource(int64(w*1000 + i)))
		o := testObject(w*10000+i+1, rng)
		o.T = float64(i) / 8
		return o
	}
	for killAt := int64(1); ; killAt++ {
		dir := t.TempDir()
		fi := vpindex.NewFaultInjector(killAt)
		store, err := vpindex.Open(coalOpts(
			vpindex.WithDataDir(dir),
			vpindex.WithSyncPolicy(vpindex.SyncGroupCommit(100*time.Microsecond)),
			vpindex.WithFaultInjector(fi),
			vpindex.WithCheckpointEvery(10),
			vpindex.WithWALSegmentBytes(2048),
		)...)
		if err != nil {
			t.Fatalf("killAt %d: open: %v", killAt, err)
		}
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			acked   = map[vpindex.ObjectID]vpindex.Object{}
			errored = map[vpindex.ObjectID]vpindex.Object{}
			crashed atomic.Bool
		)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					o := obj(w, i)
					if err := store.Report(o); err != nil {
						if !errors.Is(err, vpindex.ErrInjectedCrash) {
							t.Errorf("killAt %d: writer %d op %d: %v is not an injected crash", killAt, w, i, err)
						}
						crashed.Store(true)
						mu.Lock()
						errored[o.ID] = o
						mu.Unlock()
						return
					}
					mu.Lock()
					acked[o.ID] = o
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		_ = store.Close()
		if t.Failed() {
			return
		}

		recovered, err := vpindex.Open(coalOpts(vpindex.WithDataDir(dir))...)
		if err != nil {
			t.Fatalf("killAt %d: recovery open: %v", killAt, err)
		}
		for id, want := range acked {
			got, ok := recovered.Get(id)
			if !ok || got != want {
				t.Fatalf("killAt %d: acked object %d lost or corrupt (got %+v ok=%v)", killAt, id, got, ok)
			}
		}
		found, err := recovered.Search(wholeDomain())
		if err != nil {
			t.Fatalf("killAt %d: recovered search: %v", killAt, err)
		}
		for _, id := range found {
			if _, ok := acked[id]; ok {
				continue
			}
			want, wasInFlight := errored[id]
			if !wasInFlight {
				t.Fatalf("killAt %d: recovered id %d was never submitted", killAt, id)
			}
			got, _ := recovered.Get(id)
			if got != want {
				t.Fatalf("killAt %d: in-flight id %d recovered with wrong value %+v", killAt, id, got)
			}
		}
		recovered.Close()
		if !crashed.Load() {
			// The whole script outran the kill point (or it landed in a
			// background checkpoint): higher kill points change nothing more.
			if fi.SyncPoints() < killAt {
				t.Logf("matrix covered %d kill points", killAt-1)
				return
			}
		}
	}
}

// TestCoalescingCounters pins the counters exactly: with a zero window and
// no concurrency every Report drains as its own batch, every barrier verb
// counts one flush barrier, and DurabilityStats mirrors IngestStats.
func TestCoalescingCounters(t *testing.T) {
	dir := t.TempDir()
	store, err := vpindex.Open(
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(2),
		vpindex.WithSeed(7),
		vpindex.WithWriteCoalescing(0, 8),
		vpindex.WithDataDir(dir),
		vpindex.WithSyncPolicy(vpindex.SyncNone()),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const reports = 10
	for i := 1; i <= reports; i++ {
		if err := store.Report(testObject(i, rng)); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	ing, ok := store.IngestStats()
	if !ok {
		t.Fatal("coalesced store reports no ingest stats")
	}
	if ing.CoalescedBatches != reports || ing.CoalescedRecords != reports || ing.FlushBarriers != 0 {
		t.Fatalf("after %d sequential reports: %+v", reports, ing)
	}

	if err := store.ReportBatch([]vpindex.Object{testObject(100, rng)}); err != nil {
		t.Fatalf("report batch: %v", err)
	}
	if err := store.Remove(100); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := store.ReportBatch([]vpindex.Object{testObject(101, rng), testObject(102, rng)}); err != nil {
		t.Fatalf("report batch: %v", err)
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ing, _ = store.IngestStats()
	if ing.FlushBarriers != 4 {
		t.Fatalf("after batch+remove+batch+checkpoint: barriers = %d, want 4", ing.FlushBarriers)
	}
	if ing.CoalescedBatches != reports || ing.CoalescedRecords != reports {
		t.Fatalf("barrier verbs must not count as coalesced: %+v", ing)
	}
	ds, ok := store.DurabilityStats()
	if !ok {
		t.Fatal("durable store reports no durability stats")
	}
	if ds.CoalescedBatches != ing.CoalescedBatches ||
		ds.CoalescedRecords != ing.CoalescedRecords ||
		ds.FlushBarriers != ing.FlushBarriers {
		t.Fatalf("DurabilityStats %+v does not mirror IngestStats %+v", ds, ing)
	}

	// Concurrent phase: exact record count, batches in [records/maxBatch, records].
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				if err := store.Report(testObject(w*per+i+200, rng)); err != nil {
					t.Errorf("concurrent report: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ing2, _ := store.IngestStats()
	if got := ing2.CoalescedRecords - ing.CoalescedRecords; got != workers*per {
		t.Fatalf("concurrent phase recorded %d coalesced records, want %d", got, workers*per)
	}
	if ing2.CoalescedBatches <= ing.CoalescedBatches || ing2.CoalescedBatches > ing2.CoalescedRecords {
		t.Fatalf("implausible batch count: %+v -> %+v", ing, ing2)
	}

	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ing3, _ := store.IngestStats()
	if ing3.FlushBarriers != ing2.FlushBarriers+1 {
		t.Fatalf("close must count one flush barrier: %d -> %d", ing2.FlushBarriers, ing3.FlushBarriers)
	}

	// A store without the option reports no ingest stats.
	plain, err := vpindex.Open(vpindex.WithDomain(vpindex.R(0, 0, 100, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.IngestStats(); ok {
		t.Fatal("non-coalesced store must report ok=false")
	}
}

// TestCoalescedErrorAttribution: a failing record must fail only its own
// caller — here a strict Insert-style duplicate cannot happen on Report, so
// the error path is exercised through a degraded store instead: after the
// store leaves Healthy every queued and future Report fails, and the error
// is delivered per caller.
func TestCoalescedDegradedReports(t *testing.T) {
	dir := t.TempDir()
	fi := vpindex.NewFaultInjector(1)
	store, err := vpindex.Open(coalOpts(
		vpindex.WithDataDir(dir),
		vpindex.WithSyncPolicy(vpindex.SyncAlways()),
		vpindex.WithFaultInjector(fi),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(9))
	var firstErr error
	for i := 1; i <= 50 && firstErr == nil; i++ {
		firstErr = store.Report(testObject(i, rng))
	}
	if firstErr == nil {
		t.Fatal("injected crash never surfaced")
	}
	if !errors.Is(firstErr, vpindex.ErrInjectedCrash) {
		t.Fatalf("report error %v does not wrap the injected crash", firstErr)
	}
	// Every later Report must fail fast with the same classification.
	if err := store.Report(testObject(99, rng)); err == nil || !errors.Is(err, vpindex.ErrInjectedCrash) {
		t.Fatalf("post-crash report error = %v, want injected-crash classification", err)
	}
}
