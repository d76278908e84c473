package server

// Micro-benchmarks for the persistence paths, at the size of bench/'s
// mixed_aggregate preload: 50 k reports of 8 APs from 1 000 vehicles over
// 2 500 segments, 2 000 patterns, 20 k labels, one cycle (20 k fused APs).
// The end-to-end number these explain is that workload's setup_s.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"crowdwifi/internal/wal"
)

const (
	benchReports  = 50_000
	benchVehicles = 1_000
	benchSegments = 2_500
	benchPatterns = 2_000
	benchLabels   = 20_000
)

func benchReportItems(rnd *rand.Rand, n int, keyed bool) []BatchItem {
	items := make([]BatchItem, n)
	for i := range items {
		seg := rnd.Intn(benchSegments)
		aps := make([]APReport, 8)
		for j := range aps {
			aps[j] = APReport{X: float64(400*(seg%50)+40*j) + rnd.Float64()*2, Y: float64(100*(seg/50)) + rnd.Float64()*2, Credit: 1 + rnd.Float64()}
		}
		items[i].Report = Report{Vehicle: fmt.Sprintf("veh-%04d", rnd.Intn(benchVehicles)), Segment: fmt.Sprintf("seg-%05d", seg), APs: aps}
		if keyed {
			items[i].Key = fmt.Sprintf("lane-a-%d-%d", i/32, i%32)
		}
	}
	return items
}

// benchFill loads store with the preload and runs one cycle.
func benchFill(tb testing.TB, store *Store) {
	tb.Helper()
	rnd := rand.New(rand.NewSource(1))
	if err := errors.Join(store.AddReportBatch(context.Background(), benchReportItems(rnd, benchReports, false))...); err != nil {
		tb.Fatal(err)
	}
	for p := 0; p < benchPatterns; p++ {
		addPattern(tb, store, fmt.Sprintf("seg-%05d", p), []APReport{{X: float64(400 * (p % 50)), Y: float64(100 * (p / 50)), Credit: 1}})
	}
	labels := make([]Label, benchLabels)
	for i := range labels {
		labels[i] = Label{Vehicle: fmt.Sprintf("veh-%04d", i%benchVehicles), TaskID: rnd.Intn(benchPatterns), Value: 1 - 2*(rnd.Intn(10)/9)}
	}
	if err := store.AddLabels(labels); err != nil {
		tb.Fatal(err)
	}
	if _, err := store.Aggregate(); err != nil {
		tb.Fatal(err)
	}
}

// benchDirs builds, once per process, a directory holding the preload as a
// snapshot and nothing else, one holding it as a log and nothing else, and
// the state both recover to.
var benchDirs struct {
	sync.Once
	root, snapshot, log string
	state               snapshotState
}

func benchSetup(b *testing.B) {
	b.Helper()
	benchDirs.Do(func() {
		root, err := os.MkdirTemp("", "crowdwifi-persist-bench-")
		if err != nil {
			b.Fatal(err)
		}
		benchDirs.root = root
		benchDirs.snapshot, benchDirs.log = filepath.Join(root, "snapshot"), filepath.Join(root, "log")
		for _, dir := range []string{benchDirs.snapshot, benchDirs.log} {
			store, _, err := OpenStore(10, StorageOptions{Dir: dir, Fsync: wal.SyncOff})
			if err != nil {
				b.Fatal(err)
			}
			benchFill(b, store)
			if dir == benchDirs.snapshot {
				if _, err := store.Snapshot(); err != nil {
					b.Fatal(err)
				}
				c := store.capture()
				benchDirs.state = snapshotState{Patterns: c.patterns, Labels: c.labels, Reports: c.reports,
					Fused: c.view.fused, Reliability: c.view.reliability, Idem: store.idem.snapshot()}
			}
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if benchDirs.state.Reports.len() == 0 {
		b.Skip("benchmark fixture failed to build")
	}
}

// TestMain removes the benchmark fixture, which outlives any one benchmark.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchDirs.root != "" {
		os.RemoveAll(benchDirs.root)
	}
	os.Exit(code)
}

func dirBytes(b *testing.B, dir, pattern string) int64 {
	b.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(paths) == 0 {
		b.Fatalf("no %s in %s (err %v)", pattern, dir, err)
	}
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			b.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

var benchSink int

func BenchmarkSnapshotEncode(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := benchDirs.state.WriteTo(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += int(n)
		b.SetBytes(n)
	}
}

func benchmarkRecover(b *testing.B, dir string, bytes int64) {
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, stats, err := OpenStore(10, StorageOptions{Dir: dir, Fsync: wal.SyncOff})
		if err != nil || stats.Reports != benchReports {
			b.Fatalf("recovered %d reports, err %v", stats.Reports, err)
		}
		benchSink += stats.Reports
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverFromSnapshot(b *testing.B) {
	benchSetup(b)
	benchmarkRecover(b, benchDirs.snapshot, dirBytes(b, benchDirs.snapshot, "snap-*.snap"))
}

func BenchmarkRecoverFromLog(b *testing.B) {
	benchSetup(b)
	benchmarkRecover(b, benchDirs.log, dirBytes(b, benchDirs.log, "wal-*.seg"))
}

func BenchmarkAddReportBatch(b *testing.B) {
	b.Run("32", func(b *testing.B) {
		const size, pool = 32, 512
		items := benchReportItems(rand.New(rand.NewSource(2)), size*pool, true)
		dir := b.TempDir()
		store, _, err := OpenStore(10, StorageOptions{Dir: dir, Fsync: wal.SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := items[size*(i%pool) : size*(i%pool+1)]
			if err := errors.Join(store.AddReportBatch(context.Background(), batch)...); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.SetBytes(dirBytes(b, dir, "wal-*.seg") / int64(b.N))
	})
	// The preload: the whole 50 k-report history in one call, into an empty
	// logged store.
	b.Run("50000", func(b *testing.B) {
		items := benchReportItems(rand.New(rand.NewSource(3)), benchReports, false)
		root := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := filepath.Join(root, fmt.Sprint(i))
			store, _, err := OpenStore(10, StorageOptions{Dir: dir, Fsync: wal.SyncOff})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := errors.Join(store.AddReportBatch(context.Background(), items)...); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			os.RemoveAll(dir)
			b.StartTimer()
		}
	})
}

// BenchmarkAddPatterns registers one 8-AP pattern per operation on a logged
// store, the path mixed_aggregate's preload takes 2 000 times.
func BenchmarkAddPatterns(b *testing.B) {
	_, ps, _ := offlineWorld(1, mixedShape)
	store, _, err := OpenStore(10, StorageOptions{Dir: b.TempDir(), Fsync: wal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i%len(ps)]
		if _, err := store.AddPatternKeyed(context.Background(), "", p.Segment, p.APs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddLabels logs mixed_aggregate's 20 k labels as one batch per
// operation.
func BenchmarkAddLabels(b *testing.B) {
	_, ps, ls := offlineWorld(1, mixedShape)
	store, _, err := OpenStore(10, StorageOptions{Dir: b.TempDir(), Fsync: wal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	for _, p := range ps {
		if _, err := store.AddPatternKeyed(context.Background(), "", p.Segment, p.APs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.AddLabels(ls); err != nil {
			b.Fatal(err)
		}
	}
}
