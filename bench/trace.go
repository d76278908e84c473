package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"crowdwifi/internal/cluster"
	"crowdwifi/internal/cluster/ring"
	"crowdwifi/internal/crowd"
	"crowdwifi/internal/cs"
	"crowdwifi/internal/eval"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/mat"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/par"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/server"
	"crowdwifi/internal/sim"
	"crowdwifi/internal/solve"
	"crowdwifi/internal/wal"
)

// The traced pass works from outside: it times calls into each layer's
// public functions, in this process, on one goroutine, with fixed operation
// counts. A parent span is the outermost call (Server.ServeHTTP through an
// httptest.ResponseRecorder); each child span is the next layer down called
// on its own with the bytes the parent would have handed it. Self time is the
// parent minus its children. Tracing inside the program is a later issue.
const (
	tracedUploads    = 2000
	tracedBatches    = 200
	tracedLookups    = 2000
	tracedCycles     = 5
	tracedRouterOps  = 1000
	tracedRouterBats = 100
)

// WAL record kinds the store writes (internal/server/persist.go); the bench
// hands wal.Log.Append records of the same kind and bytes.
const (
	walKindReport      = 3
	walKindAggregate   = 4
	walKindReportBatch = 6
)

// span is one timed call. Parent is the index of the span it is charged to,
// or -1 for the outermost call of operation Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the pass ends.
type recorder struct {
	t0     time.Time
	spans  []span
	series map[string][]float64 // durations by span name, ns
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), series: map[string][]float64{}}
}

// time runs fn inside a span and returns the span's index and duration (ns).
func (r *recorder) time(name string, parent, op int, fn func()) (int, float64) {
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.spans = append(r.spans, span{Name: name, Start: int64(start), End: int64(end), Parent: parent, Op: op})
	d := float64(end - start)
	r.series[name] = append(r.series[name], d)
	return len(r.spans) - 1, d
}

// med is the median duration of the named spans, in units of per.
func (r *recorder) med(name string, per time.Duration) float64 {
	if len(r.series[name]) == 0 {
		return 0
	}
	return eval.Median(r.series[name]) / float64(per)
}

// self is a parent's self time at the median, in ns: the parent span minus
// what its children — each a series of durations, one per operation, timed
// alone — cover. Medians are compared, not operations one by one: a child
// that fsyncs takes another fsync than its parent did, as long as the disk
// felt like that time. It also checks that the children fit: timed alone they
// may outrun their share of the parent, but by no more than a tenth of it,
// or children plus self would no longer add up to the parent.
func (r *recorder) self(res *result, parent string, children ...[]float64) float64 {
	span, covered := eval.Median(r.series[parent]), 0.0
	for _, c := range children {
		covered += eval.Median(c)
	}
	var err error
	if covered > 1.1*span {
		err = fmt.Errorf("children cover %.0f ns at the median, the %s span is %.0f ns", covered, parent, span)
	}
	res.check("spans_add_up."+parent, err)
	return max(0, span-covered)
}

// maxOf is the per-operation maximum of parallel children: the part of the
// parent they cover when they overlap.
func maxOf(series ...[]float64) []float64 {
	out := append([]float64(nil), series[0]...)
	for _, s := range series[1:] {
		for i, v := range s {
			out[i] = max(out[i], v)
		}
	}
	return out
}

// runTraced is the traced pass for one workload. Every per-layer metric
// BENCHMARK.json declares is reported: a layer this workload never enters
// reads 0, which is the prediction for it.
func runTraced(rc *runCtx, w workload, outDir string) error {
	for _, m := range rc.spec.PerLayer {
		rc.res.setMetric(m.Name, 0, m.Unit)
	}
	tr := newRecorder()
	if err := w.trace(rc, tr); err != nil {
		return err
	}
	traceInstrument(rc, tr)
	rc.res.Spans = len(tr.spans)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "spans-"+w.name+".json"), data, 0o644)
}

// tracedServer is a crowd-server assembled in-process the way
// cmd/crowdwifi-server assembles itself at its default flags — durable store,
// metrics, tracer at sample rate 1, health, overload control — but for one
// thing: its store does not fsync. A child span is a second call beside the
// parent's own, so with an fsync in each the parent minus its children is the
// difference of two waits for the disk and no layer's time. Without it the
// spans are CPU and a child timed alone is comparable with its share of the
// parent; what the fsync adds to every one of them is wal.append_us against
// wal.append_nosync_us, and the untraced runs pay it in full.
type tracedServer struct {
	reg   *obs.Registry
	store *server.Store
	srv   *server.Server
	stats server.RecoveryStats
}

func newTracedServer(dir string, opts ...server.Option) (*tracedServer, error) {
	reg := obs.NewRegistry()
	store, stats, err := server.OpenStore(mergeRadius, server.StorageOptions{Dir: dir, Fsync: wal.SyncOff, Metrics: wal.NewMetrics(reg)})
	if err != nil {
		return nil, err
	}
	opts = append([]server.Option{
		server.WithMetrics(server.NewMetrics(reg)),
		server.WithTracer(trace.NewTracer(trace.Config{SampleRate: 1})),
		server.WithHealth(obs.NewHealth()),
		server.WithOverload(overload.Options{}),
	}, opts...)
	return &tracedServer{reg: reg, store: store, srv: server.New(store, opts...), stats: stats}, nil
}

// registryCounters reads a registry through the same exposition and parser
// the untraced run scrapes over HTTP.
func registryCounters(reg *obs.Registry) counters {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf)
	return parseCounters(&buf)
}

func (t *tracedServer) counters() counters { return registryCounters(t.reg) }

// frameHeaders ask for the binary codec both ways.
var frameHeaders = map[string]string{"Content-Type": server.FrameContentType, "Accept": server.FrameContentType}

// uploadHeaders are a single JSON upload's, under its idempotency key.
func uploadHeaders(key string) map[string]string {
	return map[string]string{"Content-Type": "application/json", server.IdempotencyKeyHeader: key}
}

func subdir(rc *runCtx, name string) (string, error) {
	dir := filepath.Join(rc.workDir, "trace-"+name)
	return dir, os.MkdirAll(dir, 0o755)
}

// serve runs one request through h and returns the recorded answer.
func serve(h http.Handler, method, target string, body []byte, header map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// reportRecord mirrors the store's WAL record for one report.
type reportRecord struct {
	Report  server.Report `json:"report"`
	IdemKey string        `json:"idemKey,omitempty"`
}

// walPair is two scratch logs, one per fsync policy, that take the record
// bytes a store append would write. reg counts the synced one's fsyncs.
type walPair struct {
	sync, nosync *wal.Log
	reg          *obs.Registry
}

func openWalPair(rc *runCtx, name string) (*walPair, error) {
	p := &walPair{reg: obs.NewRegistry()}
	for _, l := range []struct {
		log    **wal.Log
		suffix string
		opts   wal.Options
	}{
		{&p.sync, "-wal-sync", wal.Options{Sync: wal.SyncAlways, Metrics: wal.NewMetrics(p.reg)}},
		{&p.nosync, "-wal-nosync", wal.Options{Sync: wal.SyncOff}},
	} {
		dir, err := subdir(rc, name+l.suffix)
		if err != nil {
			return nil, err
		}
		if *l.log, _, err = wal.Open(dir, l.opts); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// append records the same bytes under both policies. The traced servers run
// without fsync, so the unsynced append is the parent's child and its
// duration is returned; the synced one stands alone and prices the fsync.
func (p *walPair) append(tr *recorder, parent, op int, kind byte, data []byte) (nosync float64, err error) {
	tr.time("wal.append", -1, op, func() { _, err = p.sync.Append(kind, data) })
	if err != nil {
		return 0, err
	}
	_, nosync = tr.time("wal.append_nosync", parent, op, func() { _, err = p.nosync.Append(kind, data) })
	return nosync, err
}

func (p *walPair) close() {
	_ = p.sync.Close()
	_ = p.nosync.Close()
}

// setWalMetrics reports the write-ahead log's per-report costs: bytes from the
// traced server's own counters and its directory on disk, fsyncs from the
// synced scratch log, which took the same records under the binary's default
// policy.
func setWalMetrics(res *result, tr *recorder, before, after counters, dir string, logs *walPair, reports int) {
	res.setMetric("wal.append_us", tr.med("wal.append", time.Microsecond), "us")
	res.setMetric("wal.append_nosync_us", tr.med("wal.append_nosync", time.Microsecond), "us")
	n := float64(reports)
	if fsyncs, ok := registryCounters(logs.reg)["crowdwifi_wal_fsyncs_total"]; ok {
		res.setMetric("wal.fsyncs_per_report", fsyncs/n, "count")
	}
	if d := delta(before, after, "crowdwifi_wal_append_bytes_total"); d != nil {
		res.setMetric("wal.bytes_per_report", *d/n, "B")
	}
	var onDisk int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			onDisk += info.Size()
		}
	}
	res.setMetric("wal.disk_bytes_per_report", float64(onDisk)/n, "B")
}

// setReplayRate reopens a directory whose state is all WAL suffix and reports
// how fast recovery replays it.
func setReplayRate(res *result, tr *recorder, dir string) error {
	var stats server.RecoveryStats
	var st *server.Store
	var err error
	tr.time("server.store.recover", -1, 0, func() {
		st, stats, err = server.OpenStore(mergeRadius, server.StorageOptions{Dir: dir})
	})
	if err != nil {
		return err
	}
	res.setMetric("wal.replay_records_s", float64(stats.ReplayedRecords)/stats.Duration.Seconds(), "1/s")
	return st.Close()
}

// ingestRig is what tracing an ingest workload takes: the traced server on a
// fresh directory, a twin store on another that takes the same reports
// straight from the bench, and the scratch logs that take their record bytes.
type ingestRig struct {
	dir    string
	ts     *tracedServer
	twin   *server.Store
	logs   *walPair
	before counters
}

func openIngestRig(rc *runCtx, name string) (*ingestRig, error) {
	g := &ingestRig{}
	var err error
	if g.dir, err = subdir(rc, "server"); err != nil {
		return nil, err
	}
	if g.ts, err = newTracedServer(g.dir); err != nil {
		return nil, err
	}
	twinDir, err := subdir(rc, "twin")
	if err != nil {
		return nil, err
	}
	if g.twin, _, err = server.OpenStore(mergeRadius, server.StorageOptions{Dir: twinDir, Fsync: wal.SyncOff}); err != nil {
		return nil, err
	}
	if g.logs, err = openWalPair(rc, name); err != nil {
		return nil, err
	}
	g.before = g.ts.counters()
	return g, nil
}

// finish reports what the rig's counters and directory say about the reports
// it took, closes it, and replays the server's log.
func (g *ingestRig) finish(rc *runCtx, tr *recorder, reports int) error {
	after := g.ts.counters()
	setShedShare(rc.res, g.before, after)
	setWalMetrics(rc.res, tr, g.before, after, g.dir, g.logs, reports)
	setObsMetrics(rc, tr, g.ts.reg)
	g.logs.close()
	if err := g.twin.Close(); err != nil {
		return err
	}
	if err := g.ts.store.Close(); err != nil {
		return err
	}
	return setReplayRate(rc.res, tr, g.dir)
}

// traceUploads is ingest_single's layers: 2000 single JSON uploads.
func traceUploads(rc *runCtx, tr *recorder) error {
	res := rc.res
	w := newWorld(rc.seed, ingestSegments, ingestVehicles, 0)
	r := rng.New(rc.seed).Split(streamLaneA)
	g, err := openIngestRig(rc, "upload")
	if err != nil {
		return err
	}
	ts, twin, logs := g.ts, g.twin, g.logs
	adm := overload.New(overload.Options{})

	var admit, store, appended []float64
	for i := 0; i < tracedUploads; i++ {
		rep := w.report(r)
		key := "t-" + strconv.Itoa(i)
		body, _ := json.Marshal(rep)
		res.Attempted++
		parent, took := tr.time("server.http.upload", -1, i, func() {
			rec := serve(ts.srv, http.MethodPost, "/v1/reports", body, uploadHeaders(key))
			if rec.Code != http.StatusCreated {
				res.Failed++
			}
		})
		_, d := tr.time("overload.admit", parent, i, func() {
			dec := adm.Admit(context.Background(), overload.FamilyUpload, true)
			dec.Release(time.Duration(took), true)
		})
		admit = append(admit, d)
		var addErr error
		child, d := tr.time("server.store.add_report", parent, i, func() {
			addErr = twin.AddReportKeyed(context.Background(), key, rep)
		})
		if addErr != nil {
			return addErr
		}
		store = append(store, d)
		data, _ := json.Marshal(reportRecord{Report: rep, IdemKey: key})
		d, err := logs.append(tr, child, i, walKindReport, data)
		if err != nil {
			return err
		}
		appended = append(appended, d)
		progress()
	}

	res.setMetric("server.http.upload_us", tr.med("server.http.upload", time.Microsecond), "us")
	res.setMetric("server.http.upload_p99_ms", percentile(sortedCopy(tr.series["server.http.upload"]), 99)/1e6, "ms")
	res.setMetric("server.http.upload_self_us", tr.self(res, "server.http.upload", admit, store)/1e3, "us")
	res.setMetric("overload.admit_us", tr.med("overload.admit", time.Microsecond), "us")
	res.setMetric("server.store.add_report_us", tr.med("server.store.add_report", time.Microsecond), "us")
	res.setMetric("server.store.add_report_self_us", tr.self(res, "server.store.add_report", appended)/1e3, "us")
	return g.finish(rc, tr, tracedUploads)
}

func setShedShare(res *result, before, after counters) {
	shed := delta(before, after, "crowdwifi_admission_shed_total")
	admitted := delta(before, after, "crowdwifi_admission_admitted_total")
	if shed != nil && admitted != nil && *shed+*admitted > 0 {
		res.setMetric("overload.shed_share", *shed/(*shed+*admitted), "share")
	}
}

// traceBatches is ingest_batch's layers: 200 POSTs of 32 binary frames.
func traceBatches(rc *runCtx, tr *recorder) error {
	res := rc.res
	w := newWorld(rc.seed, ingestSegments, ingestVehicles, 0)
	r := rng.New(rc.seed).Split(streamLaneA)
	g, err := openIngestRig(rc, "batch")
	if err != nil {
		return err
	}
	ts, twin, logs := g.ts, g.twin, g.logs

	var split, store, appended []float64
	for i := 0; i < tracedBatches; i++ {
		var body []byte
		items := make([]server.BatchItem, batchSize)
		raws := make([]json.RawMessage, batchSize)
		for j := range items {
			items[j] = server.BatchItem{Key: fmt.Sprintf("t-%d-%d", i, j), Report: w.report(r)}
			tr.time("server.wire.encode_report", -1, i, func() {
				body, _ = server.EncodeReportFrame(body, items[j].Key, items[j].Report)
			})
			raws[j], _ = json.Marshal(reportRecord{Report: items[j].Report, IdemKey: items[j].Key})
		}
		res.Attempted++
		var answer []byte
		parent, _ := tr.time("server.http.batch", -1, i, func() {
			rec := serve(ts.srv, http.MethodPost, "/v1/reports/batch", body, frameHeaders)
			answer = rec.Body.Bytes()
		})
		var statuses []server.BatchEntryStatus
		tr.time("server.wire.decode_status", -1, i, func() { statuses, err = server.DecodeBatchStatusFrame(answer) })
		stored := 0
		for _, st := range statuses {
			if st.Ok() {
				stored++
			}
		}
		if err != nil || stored != batchSize {
			res.Failed++
		}
		_, d := tr.time("server.wire.split_frames", parent, i, func() { _, err = server.SplitReportFrames(body) })
		if err != nil {
			return err
		}
		split = append(split, d)
		var addErrs []error
		child, d := tr.time("server.store.add_batch", parent, i, func() {
			addErrs = twin.AddReportBatch(context.Background(), items)
		})
		if err := errors.Join(addErrs...); err != nil {
			return err
		}
		store = append(store, d)
		chunk, _ := json.Marshal(struct {
			Reports []json.RawMessage `json:"reports"`
		}{raws})
		d, err := logs.append(tr, child, i, walKindReportBatch, chunk)
		if err != nil {
			return err
		}
		appended = append(appended, d)
		progress()
	}

	res.setMetric("server.wire.encode_report_us", tr.med("server.wire.encode_report", time.Microsecond), "us")
	res.setMetric("server.wire.split_frames_us", tr.med("server.wire.split_frames", time.Microsecond), "us")
	res.setMetric("server.wire.decode_status_us", tr.med("server.wire.decode_status", time.Microsecond), "us")
	res.setMetric("server.http.batch_us", tr.med("server.http.batch", time.Microsecond), "us")
	res.setMetric("server.http.batch_self_us", tr.self(res, "server.http.batch", split, store)/1e3, "us")
	res.setMetric("server.store.add_batch_us", tr.med("server.store.add_batch", time.Microsecond), "us")
	res.setMetric("server.store.add_batch_self_us", tr.self(res, "server.store.add_batch", appended)/1e3, "us")
	return g.finish(rc, tr, tracedBatches*batchSize)
}

// openPrebuilt prebuilds a data directory like the untraced workload does and
// boots a traced server on it, timing recovery and a snapshot — the two costs
// behind setup_s.
func openPrebuilt(rc *runCtx, tr *recorder, w *world, reports, patterns, labelsPerVehicle int) (*tracedServer, error) {
	res := rc.res
	dir, err := subdir(rc, "server")
	if err != nil {
		return nil, err
	}
	if err := prebuildStore(dir, w, rc.seed, reports, patterns, labelsPerVehicle); err != nil {
		return nil, err
	}
	progress()
	var ts *tracedServer
	tr.time("server.store.recover", -1, 0, func() { ts, err = newTracedServer(dir) })
	if err != nil {
		return nil, err
	}
	res.setMetric("server.store.recover_ms", tr.med("server.store.recover", time.Millisecond), "ms")
	res.setMetric("server.recover_s", ts.stats.Duration.Seconds(), "s")
	tr.time("server.store.snapshot", -1, 0, func() { _, err = ts.store.Snapshot() })
	if err != nil {
		return nil, err
	}
	res.setMetric("server.store.snapshot_ms", tr.med("server.store.snapshot", time.Millisecond), "ms")
	progress()
	return ts, nil
}

// traceLookups is lookup_large's layers: 2000 lookups over the prebuilt map.
func traceLookups(rc *runCtx, tr *recorder) error {
	res := rc.res
	w := newWorld(rc.seed, lookupSegments, ingestVehicles, 0)
	ts, err := openPrebuilt(rc, tr, w, lookupReports, 0, 0)
	if err != nil {
		return err
	}
	defer ts.store.Close()
	fused := len(ts.store.Lookup(w.wholeMap()))
	r := rng.New(rc.seed).Split(streamLaneA)
	var scan, encode []float64
	answered := 0
	for i := 0; i < tracedLookups; i++ {
		area := w.lookupRect(r)
		res.Attempted++
		parent, _ := tr.time("server.http.lookup", -1, i, func() {
			if rec := serve(ts.srv, http.MethodGet, "/v1/lookup?"+lookupQuery(area), nil, nil); rec.Code != http.StatusOK {
				res.Failed++
			}
		})
		var results []server.LookupResult
		_, d := tr.time("server.store.lookup", parent, i, func() { results = ts.store.Lookup(area) })
		scan = append(scan, d)
		answered += len(results)
		_, d = tr.time("server.wire.encode_lookup_json", parent, i, func() {
			_ = json.NewEncoder(io.Discard).Encode(results)
		})
		encode = append(encode, d)
		tr.time("server.wire.encode_lookup_frame", -1, i, func() { server.EncodeLookupFrame(results) })
		progress()
	}
	res.setMetric("server.http.lookup_us", tr.med("server.http.lookup", time.Microsecond), "us")
	res.setMetric("server.http.lookup_p99_ms", percentile(sortedCopy(tr.series["server.http.lookup"]), 99)/1e6, "ms")
	res.setMetric("server.http.lookup_self_us", tr.self(res, "server.http.lookup", scan, encode)/1e3, "us")
	res.setMetric("server.store.lookup_us", tr.med("server.store.lookup", time.Microsecond), "us")
	if answered > 0 {
		res.setMetric("server.store.lookup_scanned_per_result", float64(fused)*tracedLookups/float64(answered), "count")
	}
	res.setMetric("server.wire.encode_lookup_json_us", tr.med("server.wire.encode_lookup_json", time.Microsecond), "us")
	res.setMetric("server.wire.encode_lookup_frame_us", tr.med("server.wire.encode_lookup_frame", time.Microsecond), "us")
	setObsMetrics(rc, tr, ts.reg)
	return nil
}

// traceCycles is mixed_aggregate's layers: five aggregation cycles over the
// prebuilt reports, patterns and labels.
func traceCycles(rc *runCtx, tr *recorder) error {
	res := rc.res
	w := newWorld(rc.seed, mixedSegments, mixedVehicles, mixedSpammers)
	ts, err := openPrebuilt(rc, tr, w, mixedReports, mixedPatterns, mixedLabelsPerVehicle)
	if err != nil {
		return err
	}
	defer ts.store.Close()
	logs, err := openWalPair(rc, "cycle")
	if err != nil {
		return err
	}
	defer logs.close()

	// The inputs a cycle hands to crowd.Infer and crowd.WeightedFusion,
	// rebuilt from the same generated stream the store was filled from.
	_, ls := w.patternsAndLabels(rc.seed, mixedPatterns, mixedLabelsPerVehicle)
	labels := denseLabels(ls, mixedPatterns)
	pr := rng.New(rc.seed).Split(streamPreload)
	bySeg := map[string][]crowd.VehicleReport{}
	vehicleOf := map[string][]string{}
	for i := 0; i < mixedReports; i++ {
		rep := w.report(pr)
		pts := make([]geo.Point, len(rep.APs))
		for k, ap := range rep.APs {
			pts[k] = geo.Point{X: ap.X, Y: ap.Y}
		}
		bySeg[rep.Segment] = append(bySeg[rep.Segment], crowd.VehicleReport{Vehicle: len(bySeg[rep.Segment]), APs: pts})
		vehicleOf[rep.Segment] = append(vehicleOf[rep.Segment], rep.Vehicle)
	}
	segs := make([]string, 0, len(bySeg))
	for seg := range bySeg {
		segs = append(segs, seg)
	}
	sort.Strings(segs)

	before := ts.counters()
	var infer, fuse, appended []float64
	for i := 0; i < tracedCycles; i++ {
		res.Attempted++
		mid := ts.counters()
		parent, _ := tr.time("server.store.aggregate", -1, i, func() {
			if _, err := ts.store.AggregateCycle(); err != nil {
				res.Failed++
			}
		})
		recordBytes := delta(mid, ts.counters(), "crowdwifi_wal_append_bytes_total")
		_, d := tr.time("crowd.infer", parent, i, func() { crowd.Infer(labels, crowd.InferenceOptions{}) })
		infer = append(infer, d)
		reliability := ts.store.Reliability()
		weights := map[string][]float64{}
		for _, seg := range segs {
			for _, v := range vehicleOf[seg] {
				wgt, ok := reliability[v]
				if !ok {
					wgt = 1
				}
				weights[seg] = append(weights[seg], wgt)
			}
		}
		var fuseErr error
		_, d = tr.time("crowd.fusion", parent, i, func() {
			_, fuseErr = par.Map(context.Background(), len(segs), par.DefaultWorkers(), func(k int) ([]geo.Point, error) {
				return crowd.WeightedFusion(bySeg[segs[k]], weights[segs[k]], crowd.FusionOptions{MergeRadius: mergeRadius, MinWeight: 0.5})
			})
		})
		if fuseErr != nil {
			return fuseErr
		}
		fuse = append(fuse, d)
		// The cycle's record is the whole fused map and reliability vector;
		// a blob of the size the server just logged stands in for it.
		size := 0
		if recordBytes != nil {
			size = int(*recordBytes)
			res.setMetric("server.aggregate.record_bytes", *recordBytes, "B")
		}
		d, err := logs.append(tr, parent, i, walKindAggregate, make([]byte, size))
		if err != nil {
			return err
		}
		appended = append(appended, d)
		tr.time("par.map", -1, i, func() {
			_, _ = par.Map(context.Background(), len(segs), par.DefaultWorkers(), func(int) (struct{}, error) { return struct{}{}, nil })
		})
		progress()
	}
	after := ts.counters()

	res.setMetric("server.store.aggregate_ms", tr.med("server.store.aggregate", time.Millisecond), "ms")
	res.setMetric("server.store.aggregate_self_ms", tr.self(res, "server.store.aggregate", infer, fuse, appended)/1e6, "ms")
	res.setMetric("crowd.infer_ms", tr.med("crowd.infer", time.Millisecond), "ms")
	res.setMetric("crowd.fusion_ms", tr.med("crowd.fusion", time.Millisecond), "ms")
	res.setMetric("par.map_overhead_us", tr.med("par.map", time.Microsecond), "us")
	res.setMetric("wal.append_us", tr.med("wal.append", time.Microsecond), "us")
	res.setMetric("wal.append_nosync_us", tr.med("wal.append_nosync", time.Microsecond), "us")
	cycles := delta(before, after, "crowdwifi_server_aggregate_cycles_total")
	spent := delta(before, after, "crowdwifi_server_aggregate_duration_seconds_sum")
	if cycles != nil && spent != nil && *cycles > 0 {
		res.setMetric("server.aggregate.cycles", *cycles, "count")
		res.setMetric("server.aggregate.cycle_ms", *spent / *cycles * 1e3, "ms")
	}
	setObsMetrics(rc, tr, ts.reg)
	return nil
}

// denseLabels builds the bipartite instance the store hands crowd.Infer:
// each vehicle's first answer per task, vehicles numbered in order of
// appearance.
func denseLabels(ls []server.Label, tasks int) *crowd.Labels {
	type key struct {
		task    int
		vehicle string
	}
	seen := map[key]bool{}
	worker := map[string]int{}
	a := &crowd.Assignment{NumTasks: tasks, TaskWorkers: make([][]int, tasks)}
	values := make([][]int8, tasks)
	for _, l := range ls {
		if seen[key{l.TaskID, l.Vehicle}] {
			continue
		}
		seen[key{l.TaskID, l.Vehicle}] = true
		wi, ok := worker[l.Vehicle]
		if !ok {
			wi = len(worker)
			worker[l.Vehicle] = wi
			a.WorkerTasks = append(a.WorkerTasks, nil)
		}
		a.TaskWorkers[l.TaskID] = append(a.TaskWorkers[l.TaskID], wi)
		values[l.TaskID] = append(values[l.TaskID], int8(l.Value))
		a.WorkerTasks[wi] = append(a.WorkerTasks[wi], l.TaskID)
	}
	a.NumWorkers = len(worker)
	return &crowd.Labels{Assignment: a, Values: values}
}

// traceCluster is cluster_mixed's layers: a router over two in-process
// shards reached through real loopback HTTP, as the router binary reaches
// them.
func traceCluster(rc *runCtx, tr *recorder) error {
	res := rc.res
	w := newWorld(rc.seed, clusterSegments, ingestVehicles, 0)
	ids := []string{"a", "b"}
	shards := map[string]*tracedServer{}
	var peers []cluster.Peer
	for _, id := range ids {
		dir, err := subdir(rc, "shard-"+id)
		if err != nil {
			return err
		}
		ts, err := newTracedServer(dir, server.WithCluster(server.ClusterOptions{Self: id, Members: ids}))
		if err != nil {
			return err
		}
		defer ts.store.Close()
		hs := httptest.NewServer(ts.srv)
		defer hs.Close()
		shards[id] = ts
		peers = append(peers, cluster.Peer{ID: id, URL: hs.URL})
	}
	reg := obs.NewRegistry()
	rt, err := cluster.NewRouter(cluster.RouterOptions{Peers: peers, Registry: reg, Overload: &overload.Options{}})
	if err != nil {
		return err
	}
	router := cluster.WithTracer(trace.NewTracer(trace.Config{SampleRate: 1}), rt)

	pr := rng.New(rc.seed).Split(streamPreload)
	for n, stored := 0, 0; stored < clusterReports; n++ {
		rec := serve(router, http.MethodPost, "/v1/reports/batch", batchBody(w, pr, "pre", n, clusterPreloadBatch), frameHeaders)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("preload through the router: status %d", rec.Code)
		}
		stored += clusterPreloadBatch
		progress()
	}
	if rec := serve(router, http.MethodPost, "/v1/aggregate", nil, nil); rec.Code != http.StatusOK {
		return fmt.Errorf("aggregate through the router: status %d", rec.Code)
	}

	r := rng.New(rc.seed).Split(streamLaneA)
	var direct []float64
	for i := 0; i < tracedRouterOps; i++ {
		rep := w.report(r)
		body, _ := json.Marshal(rep)
		res.Attempted++
		parent, _ := tr.time("cluster.router.upload", -1, i, func() {
			rec := serve(router, http.MethodPost, "/v1/reports", body, uploadHeaders("t-"+strconv.Itoa(i)))
			if rec.Code != http.StatusCreated {
				res.Failed++
			}
		})
		// The shard's share, alone: the same report straight into its owner
		// under a key of its own, so it is stored and not replayed.
		_, d := tr.time("server.http.upload", parent, i, func() {
			serve(shards[rt.Owner(rep.Segment)].srv, http.MethodPost, "/v1/reports", body, uploadHeaders("d-"+strconv.Itoa(i)))
		})
		direct = append(direct, d)
		progress()
	}
	res.setMetric("cluster.router.upload_us", tr.med("cluster.router.upload", time.Microsecond), "us")
	res.setMetric("cluster.router.upload_self_us", tr.self(res, "cluster.router.upload", direct)/1e3, "us")
	res.setMetric("server.http.upload_us", tr.med("server.http.upload", time.Microsecond), "us")

	lr := rng.New(rc.seed).Split(streamLaneB)
	beforeLookups := registryCounters(reg)
	perShard := map[string][]float64{}
	for i := 0; i < tracedRouterOps; i++ {
		target := "/v1/lookup?" + lookupQuery(w.lookupRect(lr))
		res.Attempted++
		parent, _ := tr.time("cluster.router.lookup", -1, i, func() {
			if rec := serve(router, http.MethodGet, target, nil, nil); rec.Code != http.StatusOK {
				res.Failed++
			}
		})
		for _, id := range ids {
			_, d := tr.time("server.http.lookup", parent, i, func() { serve(shards[id].srv, http.MethodGet, target, nil, nil) })
			perShard[id] = append(perShard[id], d)
		}
		progress()
	}
	if d := delta(beforeLookups, registryCounters(reg), "crowdwifi_router_upstream_requests_total"); d != nil {
		res.setMetric("cluster.router.upstream_per_lookup", *d/tracedRouterOps, "count")
	}
	res.setMetric("cluster.router.lookup_us", tr.med("cluster.router.lookup", time.Microsecond), "us")
	// The shards answer in parallel, so they cover the longer of the two.
	res.setMetric("cluster.router.lookup_self_us",
		tr.self(res, "cluster.router.lookup", maxOf(perShard["a"], perShard["b"]))/1e3, "us")
	res.setMetric("server.http.lookup_us", tr.med("server.http.lookup", time.Microsecond), "us")

	subBatch := map[string][]float64{}
	for i := 0; i < tracedRouterBats; i++ {
		groups := map[string][]byte{}
		var body []byte
		for j := 0; j < batchSize; j++ {
			rep := w.report(r)
			body, _ = server.EncodeReportFrame(body, fmt.Sprintf("tb-%d-%d", i, j), rep)
			owner := rt.Owner(rep.Segment)
			groups[owner], _ = server.EncodeReportFrame(groups[owner], fmt.Sprintf("db-%d-%d", i, j), rep)
		}
		res.Attempted++
		parent, _ := tr.time("cluster.router.batch", -1, i, func() {
			if rec := serve(router, http.MethodPost, "/v1/reports/batch", body, frameHeaders); rec.Code != http.StatusOK {
				res.Failed++
			}
		})
		for _, id := range ids {
			_, d := tr.time("server.http.batch", parent, i, func() {
				if len(groups[id]) > 0 {
					serve(shards[id].srv, http.MethodPost, "/v1/reports/batch", groups[id], frameHeaders)
				}
			})
			subBatch[id] = append(subBatch[id], d)
		}
		progress()
	}
	res.setMetric("cluster.router.batch_split_us",
		tr.self(res, "cluster.router.batch", maxOf(subBatch["a"], subBatch["b"]))/1e3, "us")

	// One span covers 1000 Owner calls, so its microseconds read as
	// nanoseconds per call.
	rg := ring.New(ids, 0)
	for i := 0; i < 200; i++ {
		tr.time("cluster.ring.owner_x1000", -1, i, func() {
			for k := 0; k < 1000; k++ {
				rg.Owner(segmentName((i*1000 + k) % clusterSegments))
			}
		})
	}
	res.setMetric("cluster.ring.owner_ns", tr.med("cluster.ring.owner_x1000", time.Microsecond), "ns")
	setObsMetrics(rc, tr, shards["a"].reg)
	return nil
}

// traceDrive is vehicle_drive's layers: one seeded drive, round by round, and
// the numeric kernels under a round called alone on a full window's matrix.
func traceDrive(rc *runCtx, tr *recorder) error {
	res := rc.res
	d, err := newVehicle(rc.seed, streamDriveA)
	if err != nil {
		return err
	}
	g, err := grid.FromRect(d.sc.Area, driveLattice)
	if err != nil {
		return err
	}
	opts := cs.SelectOptions{MaxK: driveMaxK}
	var selects []float64
	for round := 0; d.next < len(d.ms); round++ {
		res.Attempted++
		// The window the round about to run will see.
		end := min(d.next+driveStep, len(d.ms))
		window := d.ms[max(0, end-driveWindow):end]
		parent, _ := tr.time("cs.round", -1, round, func() {
			if out, _ := d.round(); out != opOK {
				res.Failed++
			}
		})
		var h *cs.Hypothesis
		_, took := tr.time("cs.select_model", parent, round, func() { h, err = cs.SelectModel(g, d.sc.Channel, window, opts) })
		selects = append(selects, took)
		if err == nil && len(window) == driveWindow {
			tr.time("cs.evaluate_k", parent, round, func() {
				_, _ = cs.EvaluateK(g, d.sc.Channel, window, h.K, opts.Hypothesis)
			})
			traceKernels(tr, g, d.sc, window, round)
		}
		progress()
	}
	tr.time("cs.flush", -1, 0, func() { d.round() })
	tr.time("cs.final_estimates", -1, 0, func() { d.finalise() })
	res.setMetric("cs.final_estimates_ms", tr.med("cs.final_estimates", time.Millisecond), "ms")
	res.setMetric("cs.round_ms", tr.med("cs.round", time.Millisecond), "ms")
	res.setMetric("cs.round_self_ms", tr.self(res, "cs.round", selects)/1e6, "ms")
	res.setMetric("cs.select_model_ms", tr.med("cs.select_model", time.Millisecond), "ms")
	res.setMetric("cs.evaluate_k_ms", tr.med("cs.evaluate_k", time.Millisecond), "ms")
	res.setMetric("solve.bpdn_ms", tr.med("solve.bpdn", time.Millisecond), "ms")
	res.setMetric("solve.omp_ms", tr.med("solve.omp", time.Millisecond), "ms")
	res.setMetric("mat.ata_ms", tr.med("mat.ata", time.Millisecond), "ms")
	res.setMetric("mat.svd_ms", tr.med("mat.svd", time.Millisecond), "ms")
	return nil
}

// traceKernels times the solvers and matrix kernels on the sensing matrix of
// one measurement group: the strongest 24 readings of the window (the
// per-group row cap) against the whole grid, orthogonalized as RecoverTheta
// does before it solves.
func traceKernels(tr *recorder, g *grid.Grid, sc sim.Scenario, window []radio.Measurement, op int) {
	group := append([]radio.Measurement(nil), window...)
	sort.Slice(group, func(i, j int) bool { return group[i].RSS > group[j].RSS })
	group = group[:24]
	a := cs.BuildSensingMatrix(g, sc.Channel, group)
	y := make([]float64, len(group))
	for i, m := range group {
		y[i] = m.RSS
	}
	tr.time("mat.svd", -1, op, func() { mat.FactorizeSVD(a) })
	tr.time("mat.ata", -1, op, func() { mat.AtA(a) })
	aw, yw, err := cs.Orthogonalize(a, y, 0)
	if err != nil {
		return
	}
	lambda := 0.1 * mat.NormInf(mat.MulTVec(aw, yw))
	tr.time("solve.bpdn", -1, op, func() {
		_, _ = solve.BPDN(aw, yw, lambda, solve.Options{MaxIter: 400, Tol: 1e-6, NonNegative: true})
	})
	tr.time("solve.omp", -1, op, func() { _, _ = solve.OMP(aw, yw, 3, 1e-6*mat.Norm2(yw)) })
}

// setObsMetrics prices the debug plane that rides on every HTTP request at
// default flags: a span, a histogram observation, an exposition, and the
// whole tracing middleware on an upload.
func setObsMetrics(rc *runCtx, tr *recorder, reg *obs.Registry) {
	res := rc.res
	ctx := trace.WithTracer(context.Background(), trace.NewTracer(trace.Config{SampleRate: 1}))
	hist := obs.NewRegistry().Histogram("bench_seconds", "bench", obs.DefBuckets)
	// The x1000 spans cover 1000 calls each: microseconds per span read as
	// nanoseconds per call.
	for i := 0; i < 20; i++ {
		tr.time("obs.trace.span_x1000", -1, i, func() {
			for k := 0; k < 1000; k++ {
				_, sp := trace.Start(ctx, "bench")
				sp.End()
			}
		})
		tr.time("obs.histogram_observe_x1000", -1, i, func() {
			for k := 0; k < 1000; k++ {
				hist.Observe(float64(k) / 1000)
			}
		})
		tr.time("obs.exposition", -1, i, func() { _ = reg.WritePrometheus(io.Discard) })
	}
	res.setMetric("obs.trace.span_ns", tr.med("obs.trace.span_x1000", time.Microsecond), "ns")
	res.setMetric("obs.histogram_observe_ns", tr.med("obs.histogram_observe_x1000", time.Microsecond), "ns")
	res.setMetric("obs.exposition_ms", tr.med("obs.exposition", time.Millisecond), "ms")

	// Two in-memory servers alike but for WithTracer, fed the same requests
	// in turn: with no fsync in the way the difference is the middleware.
	w := newWorld(rc.seed, ingestSegments, ingestVehicles, 0)
	r := rng.New(rc.seed).Split(streamCheck)
	common := func() []server.Option {
		return []server.Option{server.WithMetrics(server.NewMetrics(obs.NewRegistry())), server.WithOverload(overload.Options{})}
	}
	plain := server.New(server.NewStore(mergeRadius), common()...)
	traced := server.New(server.NewStore(mergeRadius),
		append(common(), server.WithTracer(trace.NewTracer(trace.Config{SampleRate: 1})))...)
	for i := 0; i < 1000; i++ {
		body, _ := json.Marshal(w.report(r))
		header := uploadHeaders("o-" + strconv.Itoa(i))
		tr.time("obs.upload_untraced", -1, i, func() { serve(plain, http.MethodPost, "/v1/reports", body, header) })
		tr.time("obs.upload_traced", -1, i, func() { serve(traced, http.MethodPost, "/v1/reports", body, header) })
	}
	res.setMetric("obs.trace.http_upload_overhead_us",
		tr.med("obs.upload_traced", time.Microsecond)-tr.med("obs.upload_untraced", time.Microsecond), "us")
}

// traceInstrument reports the instrument's own error bars: how late the
// open-loop generator sends when nothing holds it up, and what share of the
// traced time went into recording spans.
func traceInstrument(rc *runCtx, tr *recorder) {
	idle := &lane{kind: "idle", rate: 500, next: func() op { return func() (outcome, int) { return opOK, 0 } }}
	runLanes([]*lane{idle}, 0, time.Second)
	rc.res.setMetric("bench.generator_late_p99_ms", idle.stats().LateP99, "ms")

	scratch := newRecorder()
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		scratch.time("x", -1, i, func() {})
	}
	perSpan := float64(time.Since(start)) / n
	traced := 0.0
	for _, s := range tr.spans {
		traced += float64(s.End - s.Start)
	}
	rc.res.setMetric("bench.trace_overhead_pct", 100*perSpan*float64(len(tr.spans))/traced, "%")
}
