// Command crowdwifi-exp regenerates every table and figure of the paper's
// evaluation section. Usage:
//
//	crowdwifi-exp [-seed N] [-trials N] [-quick] fig5|fig6|fig7|fig8|fig9|fig10|fig11|all
//
// -quick shrinks sweeps and trial counts for a fast smoke run; without it
// the full parameter grids of the paper are used.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"crowdwifi/internal/exp"
	"crowdwifi/internal/obs"
)

func main() {
	seed := flag.Uint64("seed", 2014, "experiment seed (deterministic)")
	trials := flag.Int("trials", 0, "override trial counts (0 = per-figure default)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	metricsAddr := flag.String("metrics-addr", "",
		"optional listen address serving /metrics and /debug/pprof while experiments run")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "crowdwifi-exp")
		return
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	if err := run(*seed, *trials, *quick, *metricsAddr, logger, flag.Args()); err != nil {
		logger.Error("experiment run failed", "err", err)
		os.Exit(1)
	}
}

func run(seed uint64, trials int, quick bool, metricsAddr string, logger *slog.Logger, args []string) error {
	// Long experiment sweeps are the main profiling target: expose the
	// runtime series and /debug/pprof for the duration of the run.
	defer obs.ListenDebug(metricsAddr, obs.Debug(obs.NewProcessRegistry(), nil, nil), logger)()
	if len(args) == 0 {
		return fmt.Errorf("usage: crowdwifi-exp [-seed N] [-trials N] [-quick] fig5|fig6|fig7|fig8|fig9|fig10|fig11|all")
	}
	pick := func(full, fast int) int {
		if trials > 0 {
			return trials
		}
		if quick {
			return fast
		}
		return full
	}
	type gen struct {
		name string
		f    func() (*exp.Table, error)
	}
	gens := map[string][]gen{
		"fig5": {{"fig5", func() (*exp.Table, error) { return exp.Fig5(seed) }}},
		"fig6": {{"fig6", func() (*exp.Table, error) {
			lattices := []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
			if quick {
				lattices = []float64{4, 8, 12, 16, 20}
			}
			return exp.Fig6(seed, lattices, pick(3, 1))
		}}},
		"fig7": {
			{"fig7a", func() (*exp.Table, error) { return exp.Fig7a(seed, pick(100, 10)) }},
			{"fig7b", func() (*exp.Table, error) { return exp.Fig7b(seed, pick(100, 10)) }},
		},
		"fig8": {
			{"fig8ab", func() (*exp.Table, error) {
				ks := []int{10, 15, 20, 25, 30, 35, 40}
				if quick {
					ks = []int{10, 20, 30, 40}
				}
				return exp.Fig8Sparsity(seed, pick(3, 1), ks)
			}},
			{"fig8cd", func() (*exp.Table, error) {
				ms := []int{20, 40, 60, 80, 100, 120, 140, 160}
				if quick {
					ms = []int{20, 40, 80, 160}
				}
				return exp.Fig8Measurements(seed, pick(3, 1), ms)
			}},
		},
		"fig9": {{"fig9", func() (*exp.Table, error) { return exp.Fig9(seed) }}},
		"fig10": {{"fig10", func() (*exp.Table, error) {
			dur := 1800.0
			if quick {
				dur = 900
			}
			return exp.Fig10(seed, dur)
		}}},
		"fig11": {{"fig11", func() (*exp.Table, error) {
			dur := 1800.0
			levels := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}
			if quick {
				dur = 900
				levels = []float64{0, 1, 2, 3}
			}
			return exp.Fig11(seed, dur, levels, pick(3, 1))
		}}},
	}
	order := []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}

	var selected []gen
	for _, arg := range args {
		if arg == "all" {
			selected = selected[:0]
			for _, name := range order {
				selected = append(selected, gens[name]...)
			}
			break
		}
		gs, ok := gens[arg]
		if !ok {
			return fmt.Errorf("unknown experiment %q", arg)
		}
		selected = append(selected, gs...)
	}
	for _, g := range selected {
		logger.Debug("experiment starting", "name", g.name)
		start := time.Now()
		t, err := g.f()
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		fmt.Println(t)
		fmt.Printf("[%s completed in %.1fs]\n\n", g.name, time.Since(start).Seconds())
		logger.Info("experiment complete", "name", g.name, "duration", time.Since(start))
	}
	return nil
}
