package obs

import (
	"bytes"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Mount attaches the observability endpoints to mux: the registry's
// /metrics, and net/http/pprof's index of runtime profiles, CPU profile and
// execution trace under /debug/pprof/. Every process, shard or router,
// mounts it over its own registry, so each is one scrape target and fleet
// totals are summed at the scraper. It is safe to call with a nil registry
// (the /metrics endpoint then serves an empty exposition).
func Mount(mux *http.ServeMux, reg *Registry) {
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
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

// NewDebugMux returns a mux with the Mount endpoints, for serving metrics
// and profiles on a dedicated listener next to the main service port.
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	Mount(mux, reg)
	return mux
}

// RegisterGoRuntime registers process-level gauges (goroutines, heap usage,
// GC cycles) refreshed on every scrape.
func (r *Registry) RegisterGoRuntime() {
	if r == nil {
		return
	}
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
