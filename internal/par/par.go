// Package par is CrowdWiFi's bounded worker-pool / parallel-for utility.
// The numeric core (mat kernels, per-group CS recovery, speculative K-search,
// server-side fusion) fans its hot loops out through this package so every
// call site shares one knob for parallelism (GOMAXPROCS) and one in-flight
// gauge for observability.
//
// Determinism contract: par never reorders work results. Do/For/Map index
// their outputs by task id and ForBlocks hands each callee a contiguous,
// disjoint range, so a caller that writes result[i] from task i (and performs
// no cross-task accumulation) produces bit-identical output regardless of the
// worker count or scheduling order.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"crowdwifi/internal/obs"
)

// DefaultWorkers returns the default worker count, runtime.GOMAXPROCS(0),
// read at call time: the one parallelism setting is the runtime's own.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// inflight mirrors the number of currently executing tasks into an optional
// obs gauge (nil-safe: obs instruments no-op on nil).
var inflight atomic.Pointer[obs.Gauge]

// Instrument attaches a gauge tracking the number of tasks executing across
// all par calls (e.g. par_inflight_tasks). Pass nil to detach.
func Instrument(g *obs.Gauge) {
	inflight.Store(g)
}

func taskStart() *obs.Gauge {
	g := inflight.Load()
	g.Add(1)
	return g
}

// resolve clamps the worker count to [1, n].
func resolve(n, workers int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Do runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 selects DefaultWorkers()). Indices are claimed in ascending
// order. When fn returns an error, no new indices are started and the error
// with the lowest index is returned — the same error a serial ascending loop
// would surface. A canceled ctx stops new indices from starting and Do
// returns ctx.Err() unless a lower-indexed fn error takes precedence.
// Already-running tasks always run to completion; fn must honor ctx itself
// for prompt abort.
func Do(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = resolve(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			g := taskStart()
			err := fn(i)
			g.Add(-1)
			if err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		errIdx  = -1
		firstEr error
		wg      sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				g := taskStart()
				err := fn(i)
				g.Add(-1)
				if err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if errIdx >= 0 {
		return firstEr
	}
	return ctx.Err()
}

// For runs fn(i) for every i in [0, n) on at most workers goroutines, with no
// context or error plumbing. It is the mat-kernel fast path.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = resolve(n, workers)
	if workers == 1 {
		g := taskStart()
		for i := 0; i < n; i++ {
			fn(i)
		}
		g.Add(-1)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			g := taskStart()
			defer g.Add(-1)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForBlocks splits [0, n) into contiguous disjoint blocks (about four per
// worker, for load balance) and runs fn(lo, hi) concurrently on at most
// workers goroutines. Each index belongs to exactly one block, so per-index
// output (e.g. one matrix row per index) is bit-identical to a serial loop.
func ForBlocks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = resolve(n, workers)
	if workers == 1 {
		g := taskStart()
		fn(0, n)
		g.Add(-1)
		return
	}
	blocks := workers * 4
	if blocks > n {
		blocks = n
	}
	size := (n + blocks - 1) / blocks
	For(blocks, workers, func(b int) {
		lo := b * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo < hi {
			fn(lo, hi)
		}
	})
}

// Map runs fn for every i in [0, n) under Do's scheduling and error
// semantics, collecting the results indexed by task id. On error the partial
// results are returned alongside it; entries whose task never ran (or ran
// after cancellation) hold the zero value.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
