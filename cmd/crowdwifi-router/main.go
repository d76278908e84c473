// Command crowdwifi-router fronts a sharded CrowdWiFi cluster: it speaks
// the same /v1 surface as a single crowd-server, routes uploads to the
// shard owning each road segment (consistent-hash ring, stable across
// membership churn), scatter-gathers lookups across every shard, and
// merges the answers in the server's deterministic order — so a client
// cannot tell the cluster from one big server, except that a degraded
// shard degrades only its slice (partial answers carry
// X-Crowdwifi-Partial naming the missing shards).
//
// The router answers for itself, exactly as a shard does: /metrics is its
// own registry (each process is its own scrape target, and fleet totals are
// summed at the scraper), /debug/traces its own spans (a routed upload's
// shard spans are on the owning shard, under the router attempt their
// traceparent names). /debug/cluster is a one-fetch JSON view of ring
// ownership, per-shard digests/modes/WAL depth and the drift a reconcile
// pass would repair.
//
// On startup the router runs one reconcile pass:
// it fetches every shard's per-segment digests, moves any segment resident
// on a non-owner back to its ring owner as a move of the shard's own log
// records, and re-aggregates the shards it touched — repairing the drift
// a crashed rebalance or a half-propagated membership change leaves
// behind.
//
// Membership changes are operator actions: POST /v1/cluster/members with
// {"members":["a","b"]} installs the new ring and propagates it to the
// surviving shards. To drain a dead shard's WAL into the survivors, export
// it offline with internal/server.ExportFromDir and post each owner its
// part (see the DESIGN.md cluster section); the router binary does not link
// the store.
//
// Usage:
//
//	crowdwifi-router -peers a=http://h1:8700,b=http://h2:8700
//	                 [-addr :8600] [-metrics-addr :8601] [-log-level info]
//	                 [-trace-sample 1]
//
// The ownership ring, the upstream retry schedule, the body caps and the
// trace ring are constants (DESIGN.md, "Settings").
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
	"syscall"
	"time"

	"crowdwifi/internal/api/front"
	"crowdwifi/internal/cluster"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/overload"
)

type config struct {
	addr        string
	peers       string
	metricsAddr string
	traceSample float64
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", ":8600", "listen address")
	flag.StringVar(&cfg.peers, "peers", "",
		"shard endpoints as id=url pairs, e.g. a=http://h1:8700,b=http://h2:8700 (required)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "",
		"optional extra listen address serving only /metrics and /debug endpoints")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1,
		"fraction of new traces to record, 0..1")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "crowdwifi-router")
		return
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	if err := run(cfg, logger); err != nil {
		logger.Error("router exited", "err", err)
		os.Exit(1)
	}
}

func run(cfg config, logger *slog.Logger) error {
	peers, err := cluster.ParsePeers(cfg.peers)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	reg.RegisterGoRuntime()
	obs.RegisterBuildInfo(reg)
	tracer := trace.NewTracer(trace.Config{SampleRate: cfg.traceSample})
	health := obs.NewHealth()
	health.SetNotReady("starting")

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Peers:    peers,
		Registry: reg,
		Logger:   logger,
		Overload: &overload.Options{},
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = trace.WithTracer(ctx, tracer)

	start := time.Now()
	rep, err := rt.Reconcile(ctx)
	if err != nil {
		// Startup reconcile is best-effort: a shard that is down keeps its
		// drift until the next pass, and the router still serves (partially)
		// in the meantime.
		logger.Warn("startup reconcile incomplete", "err", err)
	}
	logger.Info("startup reconcile done",
		"moves", len(rep.Moves),
		"moved_reports", rep.Stats.Reports,
		"dropped_reports", rep.DroppedReports,
		"duration", time.Since(start))

	// The debug surface is built once and served twice: under the API mux,
	// like the crowd-server's, and alone on -metrics-addr. Its /metrics is
	// the router's registry alone; shards are scraped at their own addresses.
	debug := rt.DebugHandler(tracer.Store(), health)
	mux := http.NewServeMux()
	mux.Handle("/", rt)
	front.ServeDebug(mux, debug)
	handler := cluster.WithTracer(tracer, mux)

	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}

	var metricsSrv *http.Server
	if cfg.metricsAddr != "" {
		metricsSrv = &http.Server{
			Addr:              cfg.metricsAddr,
			Handler:           debug,
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
	logger.Info("router listening", "addr", ln.Addr().String(),
		"members", len(rt.Members()))

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
		shutdownMetrics()
		return err
	case <-ctx.Done():
		logger.Info("shutting down")
		health.SetNotReady("shutdown")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		shutdownMetrics()
		if errors.Is(err, context.DeadlineExceeded) {
			return errors.New("shutdown timed out")
		}
		return err
	}
}
