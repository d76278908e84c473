// Command bench is the CrowdWiFi benchmark: six pinned workloads against the
// real crowdwifi-server and crowdwifi-router binaries at their default flags,
// end-to-end metrics from outside, and a traced in-process pass that prices
// each layer. See README.md.
//
//	go run -C bench . [-workload name] [-seed N] [-trace 1] [-runs N] [-out dir]
//	go run -C bench . -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// warmUp is driven and timed like the measure window that follows it, and
// left out of every number.
const warmUp = 3 * time.Second

// stallLimit is how long the bench goes without progress — a boot, an
// operation, a phase — before it kills every child and fails the run.
const stallLimit = 60 * time.Second

// spec is BENCHMARK.json: the names, units, directions and bounds of the
// metrics this bench must print. It is the one place they are declared.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (s *spec) why(workload string) string {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// suite is the schema-versioned file a run writes.
type suite struct {
	Schema string      `json:"schema"`
	Env    environment `json:"env"`
	Runs   []*result   `json:"runs"`
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	// The measure window is BENCHMARK.json's run_seconds. The flag exists
	// because the benchmark driver passes that same number on every run.
	seconds := flag.Int("seconds", 0, "length of the measure window in whole seconds (default BENCHMARK.json's run_seconds)")
	traced := false
	// A boolean that takes its value as a word of its own, because that is how
	// the benchmark driver writes it: --trace 0 or --trace 1.
	flag.Func("trace", "1: the traced in-process pass (per-layer metrics) instead of the untraced runs (end-to-end metrics)", func(v string) (err error) {
		traced, err = strconv.ParseBool(v)
		return err
	})
	runs := flag.Int("runs", 1, "repeat each run this many times (spread for -compare)")
	out := flag.String("out", "", "directory for the result JSON and spans (default .bench_build/results in the checkout)")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files, got %d", flag.NArg()))
		}
		code, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fatal(fmt.Errorf("stopped by %s", s))
	}()
	progress()
	go func() {
		for range time.Tick(time.Second) {
			if idle := time.Since(time.Unix(0, lastProgress.Load())); idle > stallLimit {
				fatal(fmt.Errorf("no progress for %s", idle.Round(time.Second)))
			}
		}
	}()

	buildDir := filepath.Join(root, ".bench_build")
	bins, buildTime, err := build(root, buildDir)
	if err != nil {
		fatal(err)
	}
	progress()
	// Temp dirs live inside the checkout, on whatever disk it is on, and one
	// run's are gone before it returns.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal(err)
	}
	runWorkDir = workDir
	env, err := fingerprint(root, workDir, buildTime)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(buildDir, "results")
	}

	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: the measure window is a whole number of seconds, at least 1", *seconds))
	}
	measure := time.Duration(*seconds) * time.Second
	st := suite{Schema: schemaVersion, Env: env}
	for _, w := range selected {
		for rep := 0; rep < *runs; rep++ {
			res := &result{Workload: w.name, Why: sp.why(w.name), Seed: *seed, Traced: traced,
				WarmS: warmUp.Seconds(), MeasureS: measure.Seconds()}
			rc := &runCtx{seed: *seed, warm: warmUp, measure: measure, bins: bins, workDir: workDir, spec: sp, res: res}
			run := w.run
			if traced {
				run = func(rc *runCtx) error { return runTraced(rc, w, *out) }
			}
			// A workload that cannot start or finish fails the whole run:
			// there are no numbers to print for it.
			if err := run(rc); err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			res.finish()
			res.print()
			st.Runs = append(st.Runs, res)
		}
	}

	fmt.Printf("env: commit %s, %s, nproc %d, GOMAXPROCS %d, work dir on %s, env.fsync_p50_us %.1f, env.build_s %.2f\n",
		env.Commit, env.GoVersion, env.NProc, env.GOMAXPROCS, env.WorkDirFS, env.FsyncP50Us, env.BuildS)
	if err := writeSuite(*out, *name, &st); err != nil {
		fatal(err)
	}
	last, err := contractLine(sp, st.Runs[len(st.Runs)-1])
	if err != nil {
		fatal(err)
	}
	correct := true
	for _, r := range st.Runs {
		correct = correct && r.Correct
	}
	if !correct {
		fatal(errors.New("a check or an operation failed; see the check lines above"))
	}
	cleanup()
	fmt.Println(last)
}

// runWorkDir holds this run's temp dirs; cleanup removes it on every way out.
var runWorkDir string

// cleanup stops every child and removes the run's temp dirs.
func cleanup() {
	killAllChildren()
	if runWorkDir != "" {
		_ = os.RemoveAll(runWorkDir)
	}
}

// fatal fails the run: no result line is printed and the exit code is 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	cleanup()
	os.Exit(1)
}

func writeSuite(dir, name string, st *suite) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return err
	}
	kind := "bench-"
	if st.Runs[0].Traced {
		kind = "trace-"
	}
	path := filepath.Join(dir, kind+name+".json")
	fmt.Println("results:", path)
	return os.WriteFile(path, data, 0o644)
}

// contractLine renders the one-line JSON the benchmark contract asks for from
// the run's result: exactly the metrics BENCHMARK.json declares for that kind
// of run, every one of them.
func contractLine(sp *spec, r *result) (string, error) {
	declared := sp.EndToEnd
	if r.Traced {
		declared = sp.PerLayer
	}
	metrics := map[string]metric{}
	for _, d := range declared {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: BENCHMARK.json declares %s but the run did not measure it", r.Workload, d.Name)
		}
		if m.Unit != d.Unit {
			return "", fmt.Errorf("%s: %s measured in %s, BENCHMARK.json says %s", r.Workload, d.Name, m.Unit, d.Unit)
		}
		metrics[d.Name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line), err
}
