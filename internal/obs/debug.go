package obs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"crowdwifi/internal/obs/trace"
)

// NewProcessRegistry returns the registry a process exports: empty but for
// the Go runtime gauges and crowdwifi_build_info.
func NewProcessRegistry() *Registry {
	r := NewRegistry()
	r.registerGoRuntime()
	registerBuildInfo(r)
	return r
}

// Debug returns a process's debug surface: reg's /metrics with
// net/http/pprof's index, CPU profile and execution trace under
// /debug/pprof/; traces' /debug/traces (recent, slowest and error traces)
// and /debug/traces/{id} (this process's spans of one trace); and health's
// /healthz and /readyz. A nil argument mounts nothing for its part. Every
// process, shard or router, builds it once over its own registry and spans,
// so each is one scrape target and fleet totals are summed at the scraper.
func Debug(reg *Registry, traces *trace.Store, health *Health) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if traces != nil {
		h := traces.Handler()
		mux.Handle("/debug/traces", h)
		mux.Handle("/debug/traces/", h)
	}
	if health != nil {
		mux.Handle("/healthz", health.LiveHandler())
		mux.Handle("/readyz", health.ReadyHandler())
	}
	return mux
}

// ListenDebug serves debug on addr, a binary's -metrics-addr listener, until
// stop is called. It binds before it returns and logs "metrics listening"
// with the bound address, so a :0 listener can be found. The listener is
// optional, so an empty addr serves nothing and a failure is logged, not
// returned.
func ListenDebug(addr string, debug http.Handler, log *slog.Logger) (stop func()) {
	if addr == "" {
		return func() {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Error("metrics listener failed", "addr", addr, "err", err)
		return func() {}
	}
	srv := &http.Server{Handler: debug, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			log.Error("metrics listener failed", "addr", addr, "err", err)
		}
	}()
	log.Info("metrics listening", "addr", ln.Addr().String())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}

// Serve serves h on ln until ctx ends, then drains: health goes not ready
// with reason "shutdown", "shutting down" is logged, and in-flight requests
// get 5 s to finish. It returns at once with the error if serving fails
// first, and "shutdown timed out" if the drain runs out of time.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, health *Health, log *slog.Logger) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	health.SetNotReady("shutdown")
	log.Info("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(sctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return errors.New("shutdown timed out")
	}
	return err
}

// processCPUSeconds returns the process's cumulative user+system CPU time
// read from /proc/self/stat, or -1 when unavailable. Two samples Δt apart
// give CPU utilization as Δcpu/Δt.
func processCPUSeconds() float64 {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return -1
	}
	// Fields after the parenthesized comm (which may itself contain spaces):
	// field 3 is state; utime and stime are fields 14 and 15 (1-based).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return -1
	}
	fields := strings.Fields(string(b[i+1:]))
	if len(fields) < 13 {
		return -1
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return -1
	}
	// USER_HZ is 100 on every Linux configuration Go supports.
	return (utime + stime) / 100
}

// registerGoRuntime registers process-level gauges (goroutines, heap usage,
// GC cycles) refreshed on every scrape.
func (r *Registry) registerGoRuntime() {
	goroutines := r.Gauge("go_goroutines", "Number of live goroutines.")
	heapAlloc := r.Gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.")
	heapObjects := r.Gauge("go_memstats_heap_objects", "Number of allocated heap objects.")
	totalAlloc := r.Gauge("go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.")
	gcCycles := r.Gauge("go_gc_cycles_total", "Completed GC cycles.")
	cpuSeconds := r.Gauge("process_cpu_seconds_total", "Cumulative user+system CPU time (-1 where /proc is unavailable).")
	r.onScrape(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapObjects.Set(float64(ms.HeapObjects))
		totalAlloc.Set(float64(ms.TotalAlloc))
		gcCycles.Set(float64(ms.NumGC))
		cpuSeconds.Set(processCPUSeconds())
	})
}
