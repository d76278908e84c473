// Command crowdwifi-server runs the CrowdWiFi crowd-server: the HTTP service
// that assigns AP mapping tasks, collects crowd-vehicle reports and labels,
// infers per-vehicle reliability, and serves fused AP lookup results.
//
// With -data-dir set the store is durable: every mutation is write-ahead
// logged and fsynced before it is acknowledged (concurrent reports share one
// fsync, a group commit), snapshots are cut every -snapshot-every and on
// shutdown, and a restart recovers the full state — including the
// idempotency cache, so retries of uploads acknowledged before a crash still
// dedupe.
//
// The API mux also serves /metrics (Prometheus text format), /debug/traces
// and /debug/pprof/; -metrics-addr exposes the same debug surface on a
// second, separate listener for deployments that keep it off the public
// port.
//
// Usage:
//
//	crowdwifi-server [-addr :8700] [-merge-radius 10] [-aggregate-every 30s]
//	                 [-data-dir /var/lib/crowdwifi] [-snapshot-every 5m]
//	                 [-metrics-addr :8701] [-log-level info] [-trace-sample 1]
//	                 [-shard-id a -peers a,b,c]
//
// Parallelism follows GOMAXPROCS; the admission caps, body caps, trace ring
// and ownership ring are constants (DESIGN.md, "Settings").
//
// With -shard-id and -peers set the server runs as one shard of a cluster:
// it serves the /v1/cluster/* endpoints, rejects uploads for segments the
// ownership ring assigns elsewhere with 421 + X-Crowdwifi-Owner, and
// expects a crowdwifi-router in front of it (see cmd/crowdwifi-router).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
	"crowdwifi/internal/par"
	"crowdwifi/internal/server"
	"crowdwifi/internal/wal"
)

// config carries the parsed flags into run.
type config struct {
	addr           string
	mergeRadius    float64
	aggregateEvery time.Duration
	metricsAddr    string
	dataDir        string
	snapshotEvery  time.Duration
	traceSample    float64
	shardID        string
	peers          string
}

// parseMemberIDs accepts the -peers flag in either the bare id form
// "a,b,c" or the router's id=url form "a=http://...,b=http://..." — the
// shard only needs the id set to build its ownership ring.
func parseMemberIDs(s string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, _, _ := strings.Cut(part, "=")
		if id == "" {
			return nil, fmt.Errorf("bad peer %q", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		seen[id] = true
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, errors.New("no peer ids")
	}
	return out, nil
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", ":8700", "listen address")
	flag.Float64Var(&cfg.mergeRadius, "merge-radius", 10, "fusion merge radius in metres")
	flag.DurationVar(&cfg.aggregateEvery, "aggregate-every", 30*time.Second,
		"how often to re-run reliability inference and fusion (0 disables)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "",
		"optional extra listen address serving only /metrics and /debug endpoints")
	flag.StringVar(&cfg.dataDir, "data-dir", "",
		"directory for the write-ahead log and snapshots (empty keeps state in memory)")
	flag.DurationVar(&cfg.snapshotEvery, "snapshot-every", 5*time.Minute,
		"how often to snapshot the store and compact the WAL (0 disables; a snapshot is always cut on shutdown)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1,
		"fraction of new traces to record, 0..1 (error and slow traces are retained regardless once sampled)")
	flag.StringVar(&cfg.shardID, "shard-id", "",
		"this shard's id in a cluster (empty runs single-node; requires -peers)")
	flag.StringVar(&cfg.peers, "peers", "",
		"cluster member ids, \"a,b,c\" or the router's \"a=url,b=url\" form (ids only are used here)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "crowdwifi-server")
		return
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	if err := run(cfg, logger); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}

func run(cfg config, logger *slog.Logger) error {
	reg := obs.NewRegistry()
	reg.RegisterGoRuntime()
	obs.RegisterBuildInfo(reg)
	par.Instrument(reg.Gauge("par_inflight_tasks",
		"tasks currently executing inside the internal worker pool"))
	metrics := server.NewMetrics(reg)

	tracer := trace.NewTracer(trace.Config{SampleRate: cfg.traceSample})
	// Not ready until recovery has replayed the WAL and the listener is up;
	// readiness drops again when the shutdown snapshot starts so load
	// balancers stop routing before the final fsync.
	health := obs.NewHealth()
	health.SetNotReady("recovering")

	store, recovery, err := server.OpenStore(cfg.mergeRadius, server.StorageOptions{
		Dir:     cfg.dataDir,
		Metrics: wal.NewMetrics(reg),
	})
	if err != nil {
		return fmt.Errorf("opening store: %w", err)
	}
	defer store.Close()
	if cfg.dataDir != "" {
		logger.Info("state recovered",
			"data_dir", cfg.dataDir,
			"snapshot_loaded", recovery.SnapshotLoaded,
			"snapshot_seq", recovery.SnapshotSeq,
			"replayed_records", recovery.ReplayedRecords,
			"truncated_bytes", recovery.TruncatedBytes,
			"last_seq", recovery.LastSeq,
			"patterns", recovery.Patterns,
			"labels", recovery.Labels,
			"reports", recovery.Reports,
			"idem_keys", recovery.IdemKeys,
			"duration", recovery.Duration)
	}

	srvOpts := []server.Option{
		server.WithMetrics(metrics),
		server.WithLogger(logger),
		server.WithTracer(tracer),
		server.WithHealth(health),
		server.WithOverload(overload.Options{}),
	}
	if cfg.shardID != "" {
		members, err := parseMemberIDs(cfg.peers)
		if err != nil {
			return fmt.Errorf("parsing -peers: %w", err)
		}
		srvOpts = append(srvOpts, server.WithCluster(server.ClusterOptions{
			Self:    cfg.shardID,
			Members: members,
		}))
		logger.Info("cluster mode enabled", "shard_id", cfg.shardID, "members", cfg.peers)
	}
	api := server.New(store, srvOpts...)
	srv := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = trace.WithTracer(ctx, tracer)

	// The durability machine's probe loop walks a read-only server back to
	// healthy once the disk accepts durable writes again.
	go api.Overload().Controller().Run(ctx)

	aggLog := logger.With("component", "aggregate")
	runCycle := func(base context.Context) {
		cctx, span := trace.Start(base, "server.aggregate_tick")
		defer span.End()
		stats, err := store.AggregateCycleContext(cctx)
		log := obs.WithTrace(cctx, aggLog)
		if err != nil {
			span.SetError(err)
			log.Error("cycle failed", "err", err)
			return
		}
		log.Info("cycle complete",
			"duration", stats.Duration,
			"vehicles_scored", stats.VehiclesScored,
			"spammers_flagged", stats.SpammersFlagged,
			"segments", stats.Segments,
			"fused_aps", stats.FusedAPs)
	}

	snapLog := logger.With("component", "snapshot")
	runSnapshot := func() {
		start := time.Now()
		seq, err := store.Snapshot()
		if err != nil {
			snapLog.Error("snapshot failed", "err", err)
			return
		}
		snapLog.Info("snapshot complete", "seq", seq, "duration", time.Since(start))
	}

	// Periodic aggregation and snapshotting, bounded by the shutdown
	// context. A final cycle runs on shutdown so the last reports received
	// still get fused; the final snapshot happens after the listener drains.
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		var aggC, snapC <-chan time.Time
		if cfg.aggregateEvery > 0 {
			t := time.NewTicker(cfg.aggregateEvery)
			defer t.Stop()
			aggC = t.C
		}
		if cfg.dataDir != "" && cfg.snapshotEvery > 0 {
			t := time.NewTicker(cfg.snapshotEvery)
			defer t.Stop()
			snapC = t.C
		}
		for {
			select {
			case <-aggC:
				runCycle(ctx)
			case <-snapC:
				runSnapshot()
			case <-ctx.Done():
				return
			}
		}
	}()

	// Optional dedicated observability listener. It serves the very handler
	// the API mux carries, so deployments that firewall the public port still
	// get probes and trace retrieval.
	var metricsSrv *http.Server
	if cfg.metricsAddr != "" {
		metricsSrv = &http.Server{
			Addr:              cfg.metricsAddr,
			Handler:           api.Debug(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("metrics listener failed", "addr", cfg.metricsAddr, "err", err)
			}
		}()
		logger.Info("metrics listening", "addr", cfg.metricsAddr)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	health.SetReady()
	// Log the bound address (not the flag value) so :0 deployments and the
	// crash-recovery harness can discover the real port.
	logger.Info("crowd-server listening", "addr", ln.Addr().String(),
		"merge_radius", cfg.mergeRadius, "aggregate_every", cfg.aggregateEvery)

	shutdownMetrics := func() {
		if metricsSrv == nil {
			return
		}
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = metricsSrv.Shutdown(sctx)
	}

	select {
	case err := <-errCh:
		<-bgDone
		shutdownMetrics()
		return err
	case <-ctx.Done():
		logger.Info("shutting down")
		health.SetNotReady("shutdown snapshot")
		<-bgDone
		if cfg.aggregateEvery > 0 {
			// Flush a final aggregation so reports that arrived since the
			// last tick make it into the fused database before exit. The run
			// context is already canceled here, and aggregation now honors
			// cancellation, so the flush gets its own bounded context.
			fctx, fcancel := context.WithTimeout(
				trace.WithTracer(context.Background(), tracer), 30*time.Second)
			runCycle(fctx)
			fcancel()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		shutdownMetrics()
		if cfg.dataDir != "" {
			// The listener has drained: no appends race the final snapshot,
			// so the next boot recovers instantly from it.
			runSnapshot()
		}
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return errors.New("shutdown timed out")
		}
		return err
	}
}
