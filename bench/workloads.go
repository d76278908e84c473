package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"crowdwifi/internal/geo"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/server"
	"crowdwifi/internal/wal"
)

// Sizes are fixed: a number is comparable only with the same workload at the
// same size. They are the largest that let the 136 runs the driver makes,
// each with three set-ups, end inside its hour (see README, "Sizes").
const (
	mergeRadius = 10 // crowdwifi-server's -merge-radius default

	ingestSegments = 200
	ingestVehicles = 1000
	batchSize      = 32

	lookupSegments = 10000
	lookupReports  = 40000

	mixedSegments         = 2500
	mixedReports          = 50000
	mixedVehicles         = 1000
	mixedPatterns         = 2000
	mixedLabelsPerVehicle = 20
	mixedSpammers         = 0.10
	mixedUploadRate       = 300
	mixedLookupRate       = 200
	// The measure window is exactly this many aggregation periods, so the
	// share of it spent in cycles does not depend on where it starts.
	mixedCycles = 10

	clusterSegments     = 1000
	clusterReports      = 20000
	clusterPreloadBatch = 500

	checkedLookups = 200
	setupRepeats   = 3
	setupFloor     = time.Second
)

// workload is one pinned traffic mix; why it exists is BENCHMARK.json's to
// say. run measures it untraced against the real binaries; trace replays its
// operations in-process, layer by layer.
type workload struct {
	name  string
	run   func(rc *runCtx) error
	trace func(rc *runCtx, tr *recorder) error
}

var workloads = []workload{
	{"ingest_single", runIngestSingle, traceUploads},
	{"ingest_batch", runIngestBatch, traceBatches},
	{"lookup_large", runLookupLarge, traceLookups},
	{"mixed_aggregate", runMixedAggregate, traceCycles},
	{"cluster_mixed", runClusterMixed, traceCluster},
	{"vehicle_drive", runVehicleDrive, traceDrive},
}

// runCtx carries one run's inputs and collects what it measured.
type runCtx struct {
	seed    uint64
	warm    time.Duration
	measure time.Duration
	bins    binaries
	workDir string
	spec    *spec
	res     *result
}

// sut is a booted system under test: its processes, the address clients
// talk to, and the data directories to reopen after the crash.
type sut struct {
	procs    []*child
	front    *child
	dataDirs []string
	root     string
}

func (s *sut) kill() {
	for _, p := range s.procs {
		p.kill()
	}
}

func (s *sut) remove() { _ = os.RemoveAll(s.root) }

// serverArgs are the only flags the bench sets on a crowd-server, beside the
// two that make a shard of it: everything else stays at the binary's default,
// so -fsync always, -trace-sample 1, overload control on, and info-level
// logging, which is where the bound port is read from.
func serverArgs(dataDir string, aggregateEvery time.Duration, extra ...string) []string {
	return append([]string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-aggregate-every", aggregateEvery.String(),
	}, extra...)
}

// bootSingle starts one crowd-server on a data directory that prebuild, when
// given, has filled first.
func bootSingle(rc *runCtx, aggregateEvery time.Duration, prebuild func(dir string) error) (*sut, error) {
	root, err := os.MkdirTemp(rc.workDir, "w-")
	if err != nil {
		return nil, err
	}
	s := &sut{root: root, dataDirs: []string{filepath.Join(root, "data")}}
	if err := os.Mkdir(s.dataDirs[0], 0o755); err != nil {
		return nil, err
	}
	if prebuild != nil {
		if err := prebuild(s.dataDirs[0]); err != nil {
			s.remove()
			return nil, fmt.Errorf("prebuilding state: %w", err)
		}
		progress()
	}
	c, err := startChild("server", rc.bins.server, serverArgs(s.dataDirs[0], aggregateEvery)...)
	if err != nil {
		s.remove()
		return nil, err
	}
	s.procs, s.front = []*child{c}, c
	return s, nil
}

// timedSetup sets the system up again and again — at least setupRepeats
// times, and a cheap set-up until setupFloor has gone by — discards all but
// the last, and records the fastest: interference only ever adds time, and
// over ten runs the fastest of three set-ups moved half as much as their
// median did.
func timedSetup[T any](rc *runCtx, setup func() (T, error), discard func(T)) (T, error) {
	var times []float64
	begin := time.Now()
	for {
		start := time.Now()
		s, err := setup()
		if err != nil {
			return s, err
		}
		times = append(times, time.Since(start).Seconds())
		progress()
		if len(times) >= setupRepeats && time.Since(begin) >= setupFloor {
			rc.res.setMetric("setup_s", slices.Min(times), "s")
			rc.res.SetupRuns = len(times)
			return s, nil
		}
		discard(s)
	}
}

// bootTimed is timedSetup for a system of child processes.
func bootTimed(rc *runCtx, boot func() (*sut, error)) (*sut, error) {
	s, err := timedSetup(rc, boot, func(s *sut) {
		s.kill()
		s.remove()
	})
	if err == nil {
		rc.res.recordChildren(s)
	}
	return s, err
}

// prebuildStore fills a data directory in-process, the way a long-running
// server would have: reports (and, for crowd.Infer, patterns and labels)
// appended without fsync, one aggregation, one snapshot.
func prebuildStore(dir string, w *world, seed uint64, reports, patterns, labelsPerVehicle int) error {
	st, _, err := server.OpenStore(mergeRadius, server.StorageOptions{Dir: dir, Fsync: wal.SyncOff})
	if err != nil {
		return err
	}
	defer st.Close()
	r := rng.New(seed).Split(streamPreload)
	items := make([]server.BatchItem, reports)
	for i := range items {
		items[i] = server.BatchItem{Report: w.report(r)}
	}
	if err := errors.Join(st.AddReportBatch(context.Background(), items)...); err != nil {
		return err
	}
	if patterns > 0 {
		ps, ls := w.patternsAndLabels(seed, patterns, labelsPerVehicle)
		for _, p := range ps {
			if _, err := st.AddPatternKeyed(context.Background(), "", p.Segment, p.APs); err != nil {
				return err
			}
		}
		if err := st.AddLabels(ls); err != nil {
			return err
		}
	}
	if _, err := st.Aggregate(); err != nil {
		return err
	}
	if _, err := st.Snapshot(); err != nil {
		return err
	}
	return st.Close()
}

// uploads returns a lane's source of operations posting one JSON report
// each, every one under its own Idempotency-Key.
func uploads(base string, w *world, r *rng.RNG, id string) func() op {
	conn, n := newConn(), 0
	return func() op {
		body, _ := json.Marshal(w.report(r))
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/reports", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(server.IdempotencyKeyHeader, id+"-"+strconv.Itoa(n))
		n++
		return func() (outcome, int) {
			out, _ := roundTrip(conn, req, http.StatusCreated)
			return answered(out, 1)
		}
	}
}

// batchBody frames size reports, keyed id-n-i, as one batch request body.
func batchBody(w *world, r *rng.RNG, id string, n, size int) []byte {
	var body []byte
	for i := 0; i < size; i++ {
		// A report with a vehicle and a segment always frames.
		body, _ = server.EncodeReportFrame(body, fmt.Sprintf("%s-%d-%d", id, n, i), w.report(r))
	}
	return body
}

// batches returns a lane's source of operations posting size reports each as
// binary frames. An operation is done only if every entry was stored; the
// units are the entries that were, so the books balance either way.
func batches(base string, w *world, r *rng.RNG, id string, size int) func() op {
	conn, n := newConn(), 0
	return func() op {
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/reports/batch", bytes.NewReader(batchBody(w, r, id, n, size)))
		req.Header.Set("Content-Type", server.FrameContentType)
		req.Header.Set("Accept", server.FrameContentType)
		n++
		return func() (outcome, int) {
			out, body := roundTrip(conn, req, http.StatusOK)
			if out != opOK {
				return out, 0
			}
			statuses, err := server.DecodeBatchStatusFrame(body)
			if err != nil || len(statuses) != size {
				return opFailed, 0
			}
			stored := 0
			for _, st := range statuses {
				if st.Ok() {
					stored++
				}
			}
			if stored != size {
				return opFailed, stored
			}
			return opOK, stored
		}
	}
}

// lookups returns a lane's source of operations asking for one seeded 400 m
// window each.
func lookups(base string, w *world, r *rng.RNG) func() op {
	conn := newConn()
	return func() op {
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/lookup?"+lookupQuery(w.lookupRect(r)), nil)
		return func() (outcome, int) {
			out, _ := roundTrip(conn, req, http.StatusOK)
			return answered(out, 1)
		}
	}
}

func fetchLookup(conn *http.Client, base string, area geo.Rect) ([]byte, error) {
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/lookup?"+lookupQuery(area), nil)
	out, body := roundTrip(conn, req, http.StatusOK)
	if out != opOK {
		return nil, fmt.Errorf("lookup not answered: %s", body)
	}
	return body, nil
}

// verifyLookups checks checkedLookups seeded windows against the reference
// built from one whole-map answer. The whole map is read again afterwards: if
// an aggregation cycle replaced the fused state in between, the comparison
// is void and is made again.
func verifyLookups(rc *runCtx, base string, w *world) error {
	conn := newConn()
	r := rng.New(rc.seed).Split(streamCheck)
	areas := make([]geo.Rect, checkedLookups)
	for i := range areas {
		areas[i] = w.lookupRect(r)
	}
	for attempt := 0; attempt < 5; attempt++ {
		before, err := fetchLookup(conn, base, w.wholeMap())
		if err != nil {
			return err
		}
		var all []server.LookupResult
		if err := json.Unmarshal(before, &all); err != nil {
			return fmt.Errorf("whole-map answer: %w", err)
		}
		if len(all) == 0 {
			return errors.New("whole-map answer is empty")
		}
		cmpErr := checkLookups(all, areas, func(a geo.Rect) ([]byte, error) { return fetchLookup(conn, base, a) })
		after, err := fetchLookup(conn, base, w.wholeMap())
		if err != nil {
			return err
		}
		if bytes.Equal(before, after) {
			return cmpErr
		}
		progress()
	}
	return errors.New("fused state never held still for the lookup check")
}

// verifyBooks reopens every data directory after the SIGKILL and compares
// what recovery finds with what the clients were told: preloaded + acked,
// none lost, none doubled.
func verifyBooks(dirs []string, want int) error {
	got := 0
	for _, dir := range dirs {
		st, _, err := server.OpenStore(mergeRadius, server.StorageOptions{Dir: dir})
		if err != nil {
			return fmt.Errorf("reopening %s: %w", dir, err)
		}
		_, _, reports := st.Counts()
		got += reports
		if err := st.Close(); err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("store holds %d reports after the crash, clients were acked %d", got, want)
	}
	return nil
}

// measureHTTP runs the two lanes against a booted system and records the
// window's numbers. Counters come from the crowd-servers' own /metrics: the
// router's is a federation that would count each shard twice.
func measureHTTP(rc *runCtx, s *sut, a, b *lane) error {
	m := measurement{run: runLanes}
	for _, p := range s.procs {
		m.pids = append(m.pids, p.cmd.Process.Pid)
		if p.name != "router" {
			m.metricsURLs = append(m.metricsURLs, p.url("/metrics"))
		}
	}
	return rc.measureLanes(m, a, b)
}

func runIngestSingle(rc *runCtx) error {
	return runIngest(rc, func(base string, w *world, r *rng.RNG, id string) *lane {
		return &lane{kind: "upload", next: uploads(base, w, r, id)}
	})
}

func runIngestBatch(rc *runCtx) error {
	return runIngest(rc, func(base string, w *world, r *rng.RNG, id string) *lane {
		return &lane{kind: "batch", next: batches(base, w, r, id, batchSize)}
	})
}

// runIngest is ingest_single and ingest_batch: the same report stream into a
// fresh data directory, over two closed-loop connections.
func runIngest(rc *runCtx, mk func(base string, w *world, r *rng.RNG, id string) *lane) error {
	w := newWorld(rc.seed, ingestSegments, ingestVehicles, 0)
	s, err := bootTimed(rc, func() (*sut, error) { return bootSingle(rc, 0, nil) })
	if err != nil {
		return err
	}
	defer s.remove()
	defer s.kill()
	base := s.front.url("")
	a := mk(base, w, rng.New(rc.seed).Split(streamLaneA), "a")
	b := mk(base, w, rng.New(rc.seed).Split(streamLaneB), "b")
	if err := measureHTTP(rc, s, a, b); err != nil {
		return err
	}
	s.kill()
	rc.res.check("books_balance", verifyBooks(s.dataDirs, a.acked()+b.acked()))
	return nil
}

func runLookupLarge(rc *runCtx) error {
	w := newWorld(rc.seed, lookupSegments, ingestVehicles, 0)
	s, err := bootTimed(rc, func() (*sut, error) {
		return bootSingle(rc, 0, func(dir string) error {
			return prebuildStore(dir, w, rc.seed, lookupReports, 0, 0)
		})
	})
	if err != nil {
		return err
	}
	defer s.remove()
	defer s.kill()
	base := s.front.url("")
	a := &lane{kind: "lookup", next: lookups(base, w, rng.New(rc.seed).Split(streamLaneA))}
	b := &lane{kind: "lookup", next: lookups(base, w, rng.New(rc.seed).Split(streamLaneB))}
	if err := measureHTTP(rc, s, a, b); err != nil {
		return err
	}
	rc.res.check("lookups_match_reference", verifyLookups(rc, base, w))
	return nil
}

func runMixedAggregate(rc *runCtx) error {
	w := newWorld(rc.seed, mixedSegments, mixedVehicles, mixedSpammers)
	s, err := bootTimed(rc, func() (*sut, error) {
		return bootSingle(rc, rc.measure/mixedCycles, func(dir string) error {
			return prebuildStore(dir, w, rc.seed, mixedReports, mixedPatterns, mixedLabelsPerVehicle)
		})
	})
	if err != nil {
		return err
	}
	defer s.remove()
	defer s.kill()
	base := s.front.url("")
	a := &lane{kind: "upload", rate: mixedUploadRate, next: uploads(base, w, rng.New(rc.seed).Split(streamLaneA), "a")}
	b := &lane{kind: "lookup", rate: mixedLookupRate, next: lookups(base, w, rng.New(rc.seed).Split(streamLaneB))}
	if err := measureHTTP(rc, s, a, b); err != nil {
		return err
	}
	// From due time, one cycle's lock hold. The benchmark contract has every
	// workload report every bounded metric and only this one has a stall to
	// report, so it carries no bound.
	rc.res.setMetric("lookup_stall_p99_ms", percentile(rc.res.Lanes["b"].Latency.Sorted, 99), "ms")
	rc.res.check("lookups_match_reference", verifyLookups(rc, base, w))
	s.kill()
	rc.res.check("books_balance", verifyBooks(s.dataDirs, mixedReports+a.acked()))
	return nil
}

// bootCluster starts two shards and a router, preloads through the router's
// batch route and aggregates through the router, so the state the lookups
// scatter over was placed by the ring.
func bootCluster(rc *runCtx, w *world) (*sut, error) {
	root, err := os.MkdirTemp(rc.workDir, "w-")
	if err != nil {
		return nil, err
	}
	s := &sut{root: root}
	fail := func(err error) (*sut, error) {
		s.kill()
		s.remove()
		return nil, err
	}
	peers := ""
	for _, id := range []string{"a", "b"} {
		dir := filepath.Join(root, "shard-"+id)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return fail(err)
		}
		c, err := startChild("shard-"+id, rc.bins.server, serverArgs(dir, 0, "-shard-id", id, "-peers", "a,b")...)
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, c)
		s.dataDirs = append(s.dataDirs, dir)
		if peers != "" {
			peers += ","
		}
		peers += id + "=" + c.url("")
	}
	router, err := startChild("router", rc.bins.router, "-addr", "127.0.0.1:0", "-peers", peers)
	if err != nil {
		return fail(err)
	}
	s.procs, s.front = append(s.procs, router), router

	r := rng.New(rc.seed).Split(streamPreload)
	load := batches(router.url(""), w, r, "pre", clusterPreloadBatch)
	for stored := 0; stored < clusterReports; {
		out, n := load()()
		if out != opOK {
			return fail(errors.New("preload batch through the router was not stored"))
		}
		stored += n
		progress()
	}
	req, _ := http.NewRequest(http.MethodPost, router.url("/v1/aggregate"), nil)
	if out, body := roundTrip(newConn(), req, http.StatusOK); out != opOK {
		return fail(fmt.Errorf("aggregate through the router: %s", body))
	}
	return s, nil
}

func runClusterMixed(rc *runCtx) error {
	w := newWorld(rc.seed, clusterSegments, ingestVehicles, 0)
	s, err := bootTimed(rc, func() (*sut, error) { return bootCluster(rc, w) })
	if err != nil {
		return err
	}
	defer s.remove()
	defer s.kill()
	base := s.front.url("")
	a := &lane{kind: "upload", next: uploads(base, w, rng.New(rc.seed).Split(streamLaneA), "a")}
	b := &lane{kind: "lookup", next: lookups(base, w, rng.New(rc.seed).Split(streamLaneB))}
	if err := measureHTTP(rc, s, a, b); err != nil {
		return err
	}
	rc.res.check("lookups_match_reference", verifyLookups(rc, base, w))
	rc.res.check("router_matches_shards", verifyRouterMerge(s, w))
	s.kill()
	rc.res.check("books_balance", verifyBooks(s.dataDirs, clusterReports+a.acked()))
	return nil
}

// verifyRouterMerge asks each shard directly for the whole map and checks
// that the router's answer is exactly their union in the documented order.
func verifyRouterMerge(s *sut, w *world) error {
	conn := newConn()
	var union []server.LookupResult
	for _, p := range s.procs {
		if p == s.front {
			continue
		}
		body, err := fetchLookup(conn, p.url(""), w.wholeMap())
		if err != nil {
			return err
		}
		var part []server.LookupResult
		if err := json.Unmarshal(body, &part); err != nil {
			return err
		}
		union = append(union, part...)
	}
	got, err := fetchLookup(conn, s.front.url(""), w.wholeMap())
	if err != nil {
		return err
	}
	if want := refLookupBody(union, w.wholeMap()); !bytes.Equal(got, want) {
		return fmt.Errorf("router whole-map answer (%d bytes) is not the ordered union of its shards' (%d bytes)", len(got), len(want))
	}
	return nil
}
