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

// writePathOpts is the base configuration for the write-path oracles: a
// sharded, velocity-partitioned store, so concurrent writers contend on
// shard locks, partition routing and — when durable — the WAL's group
// commit.
func writePathOpts(extra ...vpindex.Option) []vpindex.Option {
	opts := []vpindex.Option{
		vpindex.WithKind(vpindex.Bx),
		vpindex.WithDomain(vpindex.R(0, 0, 20000, 20000)),
		vpindex.WithBufferPages(30),
		vpindex.WithShards(2),
		vpindex.WithVelocityPartitioning(2),
		vpindex.WithVelocitySample(testSample(400, 19)),
		vpindex.WithSeed(7),
	}
	return append(opts, extra...)
}

// TestWritePathDifferentialOracle is the write path's -race differential
// oracle: N concurrent writers drive the store with a mixed
// Report/Remove/ReportBatch/Checkpoint stream while a maintenance goroutine
// forces repartition swaps under the load; each writer owns a disjoint ID
// range, so replaying its interleaving through a brute-force shadow map is
// exact. The final store state must equal the shadow, and — for the durable
// variant, whose writers share fsyncs through group commit — must survive a
// Close/reopen through the log.
func TestWritePathDifferentialOracle(t *testing.T) {
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
		store, err := vpindex.Open(writePathOpts(extra...)...)
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
					case i%23 == 11:
						err := store.Remove(o.ID)
						if err != nil && !errors.Is(err, vpindex.ErrNotFound) {
							errs <- fmt.Errorf("writer %d remove: %w", w, err)
							return
						}
						if err == nil {
							delete(shadow[w], o.ID)
						}
					case i%23 == 17:
						o2 := testObject(base+1+rng.Intn(idsPer), rng)
						o2.T = o.T
						if err := store.ReportBatch([]vpindex.Object{o, o2}); err != nil {
							errs <- fmt.Errorf("writer %d report batch: %w", w, err)
							return
						}
						// Same ID means same shard: o2 applies after o.
						shadow[w][o.ID] = o
						shadow[w][o2.ID] = o2
					case i%23 == 5 && dir != "":
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
		// Force repartition swaps under the write load, so writes land
		// across epoch cutovers.
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
		if dir == "" {
			return
		}
		if err := store.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		recovered, err := vpindex.Open(writePathOpts(vpindex.WithDataDir(dir))...)
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		defer recovered.Close()
		verify(recovered, "recovered")
	}
	t.Run("memory", func(t *testing.T) { run(t, "") })
	t.Run("durable", func(t *testing.T) { run(t, t.TempDir()) })
}

// TestWritePathKillPointOracle extends the kill-point matrix to concurrent
// committers: writers stream unique-ID reports under group commit, so
// several of them wait on one leader's fsync, while the injector kills the
// process image at every successive fsync. After recovery, every acknowledged report must be
// present with its exact value (acked = survives), and nothing may appear
// that was not at least submitted — a recovered ID is either acked or the
// in-flight op that died mid-commit (unacked ops otherwise leave no trace).
func TestWritePathKillPointOracle(t *testing.T) {
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
		store, err := vpindex.Open(writePathOpts(
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

		recovered, err := vpindex.Open(writePathOpts(vpindex.WithDataDir(dir))...)
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

// TestWritePathDegradedReports: a Report cannot fail on a duplicate, so its
// error path is exercised through a crashed store: the Report whose fsync
// the injector kills returns the injected crash, and every later Report
// fails fast with the same classification.
func TestWritePathDegradedReports(t *testing.T) {
	dir := t.TempDir()
	fi := vpindex.NewFaultInjector(1)
	store, err := vpindex.Open(writePathOpts(
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
