package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crowdwifi/internal/obs"
)

func TestDoRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 137
		seen := make([]atomic.Int32, n)
		if err := Do(context.Background(), n, workers, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Do(context.Background(), 64, workers, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: got %v, want the lowest-index error (task 3)", workers, err)
		}
	}
}

func TestDoCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Do(ctx, 1000, 4, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() > 8 {
		t.Fatalf("pre-canceled context still ran %d tasks", ran.Load())
	}
}

func TestDoCancelStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := Do(ctx, 100000, 2, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n > 1000 {
		t.Fatalf("cancellation did not stop scheduling: %d tasks ran", n)
	}
}

func TestForBlocksCoversRangeDisjointly(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1001} {
		for _, workers := range []int{1, 4} {
			seen := make([]atomic.Int32, n)
			ForBlocks(n, workers, func(lo, hi int) {
				if lo >= hi || lo < 0 || hi > n {
					t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, got)
				}
			}
		}
	}
}

func TestMapIndexesResults(t *testing.T) {
	out, err := Map(context.Background(), 50, 4, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(7))
	if got := DefaultWorkers(); got != 7 {
		t.Fatalf("DefaultWorkers = %d at GOMAXPROCS 7", got)
	}
	runtime.GOMAXPROCS(1)
	if got := DefaultWorkers(); got != 1 {
		t.Fatalf("DefaultWorkers = %d at GOMAXPROCS 1", got)
	}
}

func TestInstrumentGauge(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("par_inflight_tasks", "tasks executing in par pools")
	Instrument(g)
	defer Instrument(nil)
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	go func() {
		_ = Do(context.Background(), 4, 4, func(i int) error {
			started <- struct{}{}
			<-block
			return nil
		})
	}()
	for i := 0; i < 4; i++ {
		<-started
	}
	if got := g.Value(); got < 1 {
		t.Fatalf("in-flight gauge = %v while 4 tasks run (want >= 1)", got)
	}
	close(block)
}
