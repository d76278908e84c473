// Command crowdwifi-vehicle simulates one crowd-vehicle: it drives the UCI
// scenario, runs online compressive sensing over the drive-by RSS stream,
// prints its consolidated AP estimates, and (when a crowd-server address is
// given) uploads its report, proposes its constellation as a mapping task,
// and labels pending tasks from other vehicles.
//
// Usage:
//
//	crowdwifi-vehicle [-id veh-1] [-server http://127.0.0.1:8700]
//	                  [-samples 180] [-seed 7] [-segment uci-campus]
//	                  [-spammer] [-outbox-cap 256] [-drain-timeout 5s]
//	                  [-retry-attempts 4] [-trace-sample 1]
//
// The CS core's parallelism follows GOMAXPROCS; estimates are identical at
// any setting.
//
// With -spammer the vehicle answers mapping tasks randomly instead of
// honestly — useful for demonstrating the server's reliability inference.
//
// All server traffic goes through the resilience stack: exponential-backoff
// retries with a circuit breaker (internal/retry) and a store-and-forward
// outbox that parks undeliverable uploads. On SIGINT/SIGTERM the vehicle
// stops its run and flushes the outbox, bounded by -drain-timeout, before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/client"
	"crowdwifi/internal/cs"
	"crowdwifi/internal/eval"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/obs"
	"crowdwifi/internal/obs/trace"
	"crowdwifi/internal/par"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/retry"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
	"crowdwifi/internal/traceio"
)

// runConfig carries the vehicle run's settings (one field per flag).
type runConfig struct {
	ID            string
	ServerURL     string
	Segment       string
	TracePath     string
	OutPath       string
	Samples       int
	Seed          uint64
	Spammer       bool
	MetricsAddr   string
	OutboxCap     int
	DrainTimeout  time.Duration
	RetryAttempts int
	TraceSample   float64
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.ID, "id", "veh-1", "vehicle identifier")
	flag.StringVar(&cfg.ServerURL, "server", "", "crowd-server base URL (empty: offline)")
	flag.IntVar(&cfg.Samples, "samples", 180, "RSS samples to collect on the drive")
	flag.Uint64Var(&cfg.Seed, "seed", 7, "simulation seed")
	flag.StringVar(&cfg.Segment, "segment", "uci-campus", "road segment id for uploads")
	flag.BoolVar(&cfg.Spammer, "spammer", false, "answer mapping tasks randomly")
	flag.StringVar(&cfg.TracePath, "trace", "", "replay a measurement CSV instead of simulating a drive")
	flag.StringVar(&cfg.OutPath, "out", "", "write the consolidated AP estimates to this CSV")
	flag.StringVar(&cfg.MetricsAddr, "metrics-addr", "",
		"optional listen address serving /metrics and /debug endpoints for the run")
	flag.IntVar(&cfg.OutboxCap, "outbox-cap", client.DefaultOutboxCapacity,
		"store-and-forward outbox capacity (oldest entries evicted when full)")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", 5*time.Second,
		"deadline for flushing queued uploads on exit")
	flag.IntVar(&cfg.RetryAttempts, "retry-attempts", 4,
		"max delivery attempts per request (exponential backoff with jitter)")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", 1,
		"fraction of new traces to record, 0..1")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "crowdwifi-vehicle")
		return
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level).With("vehicle", cfg.ID)

	// SIGINT/SIGTERM cancels the run context; in-flight uploads fail over to
	// the outbox and the deferred flush (on its own deadline) delivers them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, cfg, logger); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg runConfig, logger *slog.Logger) error {
	reg := obs.NewRegistry()
	reg.RegisterGoRuntime()
	obs.RegisterBuildInfo(reg)
	par.Instrument(reg.Gauge("par_inflight_tasks",
		"tasks currently executing inside the internal worker pool"))
	tracer := trace.NewTracer(trace.Config{SampleRate: cfg.TraceSample})
	ctx = trace.WithTracer(ctx, tracer)
	if cfg.MetricsAddr != "" {
		go func() {
			debugMux := obs.NewDebugMux(reg)
			trace.Mount(debugMux, tracer.Store())
			srv := &http.Server{
				Addr:              cfg.MetricsAddr,
				Handler:           debugMux,
				ReadHeaderTimeout: 5 * time.Second,
			}
			if err := srv.ListenAndServe(); err != nil {
				logger.Warn("metrics listener failed", "addr", cfg.MetricsAddr, "err", err)
			}
		}()
		logger.Info("metrics listening", "addr", cfg.MetricsAddr)
	}

	sc := sim.UCI()
	r := rng.New(cfg.Seed)
	var ms []radio.Measurement
	if cfg.TracePath != "" {
		f, err := os.Open(cfg.TracePath)
		if err != nil {
			return err
		}
		ms, err = traceio.ReadMeasurements(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		var err error
		ms, err = sc.Drive(sim.DriveConfig{
			Trajectory: sim.UCIDrive(),
			NumSamples: cfg.Samples,
			SNR:        30,
		}, r)
		if err != nil {
			return err
		}
	}
	area := sc.Area
	engineCfg := cs.EngineConfig{
		Channel:     sc.Channel,
		Radius:      sc.Radius,
		Lattice:     sc.Lattice,
		Area:        &area,
		WindowSize:  60,
		StepSize:    10,
		MergeRadius: 1.5 * sc.Lattice,
		Select:      cs.SelectOptions{MaxK: 8},
		Metrics:     cs.NewMetrics(reg),
	}

	vehicle, err := client.NewCrowdVehicle(cfg.ID, cfg.ServerURL, engineCfg)
	if err != nil {
		return err
	}
	vehicle.Metrics = client.NewMetrics(reg)

	// Resilient transport: backoff retries, a circuit breaker so a dead
	// server is not hammered, and the outbox as last resort. The flush runs
	// deferred so even an interrupted or failed run delivers what it can.
	retryMetrics := retry.NewMetrics(reg)
	breaker := retry.NewBreaker(retry.BreakerConfig{OnStateChange: retryMetrics.BreakerHook()})
	vehicle.HTTP = retry.NewDoer(nil,
		retry.Policy{MaxAttempts: cfg.RetryAttempts},
		retry.WithBreaker(breaker),
		retry.WithMetrics(retryMetrics))
	vehicle.Outbox = client.NewOutbox(cfg.OutboxCap)
	defer flushOutbox(tracer, vehicle, cfg.DrainTimeout, logger)

	logger.Info("driving", "scenario", "uci-campus", "samples", len(ms))
	fmt.Printf("%s: driving the UCI campus, %d RSS samples...\n", cfg.ID, len(ms))
	if err := vehicle.Sense(ctx, ms); err != nil {
		return err
	}
	ests := vehicle.Estimates()
	fmt.Printf("%s: %d consolidated AP estimates:\n", cfg.ID, len(ests))
	pts := make([]geo.Point, len(ests))
	for i, e := range ests {
		pts[i] = e.Pos
		fmt.Printf("  AP at (%.1f, %.1f) m, credit %.0f\n", e.Pos.X, e.Pos.Y, e.Credit)
	}
	if cfg.TracePath == "" {
		fmt.Printf("%s: mean matched error vs ground truth: %.2f m\n",
			cfg.ID, eval.MeanMatchedDistance(sc.APs, pts))
	}
	if cfg.OutPath != "" {
		f, err := os.Create(cfg.OutPath)
		if err != nil {
			return err
		}
		werr := traceio.WriteEstimates(f, ests)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		fmt.Printf("%s: estimates written to %s\n", cfg.ID, cfg.OutPath)
	}

	if cfg.ServerURL == "" {
		return nil
	}

	switch err := vehicle.Report(ctx, cfg.Segment); {
	case err == nil:
		fmt.Printf("%s: report uploaded to %s\n", cfg.ID, cfg.ServerURL)
	case errors.Is(err, client.ErrQueued):
		logger.Warn("report delivery deferred to outbox", "err", err)
		fmt.Printf("%s: report queued for delivery\n", cfg.ID)
	default:
		return fmt.Errorf("upload report: %w", err)
	}
	if interrupted(ctx, logger) {
		return nil
	}

	taskID, err := waitOutSheds(ctx, cfg.RetryAttempts, func() (int, error) {
		return vehicle.ProposePattern(ctx, cfg.Segment)
	})
	if err != nil {
		if interrupted(ctx, logger) {
			return nil
		}
		return fmt.Errorf("propose pattern: %w", err)
	}
	fmt.Printf("%s: proposed mapping task %d\n", cfg.ID, taskID)

	tasks, err := waitOutSheds(ctx, cfg.RetryAttempts, func() ([]api.Pattern, error) {
		return vehicle.PullTasks(ctx, 10)
	})
	if err != nil {
		if interrupted(ctx, logger) {
			return nil
		}
		return fmt.Errorf("pull tasks: %w", err)
	}
	if cfg.Spammer {
		labels := make([]api.Label, 0, len(tasks))
		for _, task := range tasks {
			v := 1
			if r.Bernoulli(0.5) {
				v = -1
			}
			labels = append(labels, api.Label{Vehicle: cfg.ID, TaskID: task.ID, Value: v})
		}
		if len(labels) > 0 {
			if err := vehicle.SubmitLabels(ctx, labels); err != nil && !errors.Is(err, client.ErrQueued) {
				return fmt.Errorf("submit labels: %w", err)
			}
		}
		fmt.Printf("%s: SPAMMED %d mapping tasks with random answers\n", cfg.ID, len(labels))
		return nil
	}
	labels, err := vehicle.LabelTasks(ctx, tasks, 2*sc.Lattice)
	if err != nil && !errors.Is(err, client.ErrQueued) {
		if interrupted(ctx, logger) {
			return nil
		}
		return fmt.Errorf("label tasks: %w", err)
	}
	fmt.Printf("%s: honestly labelled %d mapping tasks\n", cfg.ID, len(labels))
	return nil
}

// interrupted reports whether the run context was cancelled (SIGINT/SIGTERM);
// the caller should stop cleanly and let the deferred outbox flush finish the
// delivery work.
func interrupted(ctx context.Context, logger *slog.Logger) bool {
	if ctx.Err() == nil {
		return false
	}
	logger.Info("interrupted; skipping remaining phases")
	return true
}

// flushOutbox delivers any queued uploads before exit, bounded by timeout. It
// runs on a fresh context: the run context is already cancelled when the
// vehicle was interrupted, but the parked uploads still deserve one bounded
// drain attempt. The tracer rides along so drained entries resume the trace
// of the upload that queued them, and the flush logs carry its trace id.
func flushOutbox(tracer *trace.Tracer, v *client.CrowdVehicle, timeout time.Duration, logger *slog.Logger) {
	if v.Outbox == nil || v.Outbox.Len() == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ctx = trace.WithTracer(ctx, tracer)
	fctx, span := trace.Start(ctx, "client.flush_outbox")
	defer span.End()
	span.SetAttr("depth", v.Outbox.Len())
	ctx = fctx
	logger = obs.WithTrace(ctx, logger)
	logger.Info("flushing outbox before exit", "depth", v.Outbox.Len(), "timeout", timeout)
	for sheds := 0; v.Outbox.Len() > 0; {
		n, err := v.DrainOutbox(ctx)
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			logger.Warn("outbox flush deadline exceeded", "undelivered", v.Outbox.Len())
			return
		}
		// A full or read-only server tells us when to come back; honor
		// its Retry-After, jittered and doubled per shed, instead of
		// hammering on a fixed cadence.
		pause := 200 * time.Millisecond
		if hint := client.RetryAfterHint(err); hint > 0 {
			pause = max(pause, shedPause(hint, sheds))
			sheds++
		}
		logger.Warn("outbox flush interrupted; retrying", "delivered", n, "err", err, "pause", pause)
		if serr := retry.Sleep(ctx, pause); serr != nil {
			logger.Warn("outbox flush deadline exceeded", "undelivered", v.Outbox.Len())
			return
		}
	}
	logger.Info("outbox flushed")
}

// waitOutSheds calls f again after each shed (a 503 or 429 carrying
// Retry-After), waiting out its hint, up to attempts calls in all.
// retry.Doer answers a shed at once and an upload parks in the outbox, but
// a proposal or a task pull has no later loop to wait in.
func waitOutSheds[T any](ctx context.Context, attempts int, f func() (T, error)) (T, error) {
	for n := 0; ; n++ {
		v, err := f()
		hint := client.RetryAfterHint(err)
		if hint <= 0 || n+1 >= attempts || retry.Sleep(ctx, shedPause(hint, n)) != nil {
			return v, err
		}
	}
}

// shedPause is the wait after the n-th repeated shed (0 for the first) with
// Retry-After hint. The hint is doubled per repeat (a family still full at
// the hinted time is still full), capped at api.MaxRetryAfter, and spread
// across [hint, 1.5·hint), so a fleet shed together does not wake as a herd.
func shedPause(hint time.Duration, n int) time.Duration {
	for i := 0; i < n && hint < api.MaxRetryAfter; i++ {
		hint *= 2
	}
	hint = min(hint, api.MaxRetryAfter)
	return hint + time.Duration(rand.Float64()*0.5*float64(hint))
}
