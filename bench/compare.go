package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"

	"crowdwifi/internal/eval"
)

func loadSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st suite
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if st.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, this bench reads %q", path, st.Schema, schemaVersion)
	}
	return &st, nil
}

// values collects one end-to-end metric over a suite's untraced runs of one
// workload.
func (st *suite) values(workload, name string) []float64 {
	var out []float64
	for _, r := range st.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// taken describes how a suite's untraced runs of one workload were taken: the
// measure window and the seeds, in order.
func (st *suite) taken(workload string) string {
	var seeds []uint64
	window := map[float64]bool{}
	for _, r := range st.Runs {
		if r.Workload == workload && !r.Traced {
			seeds = append(seeds, r.Seed)
			window[r.MeasureS] = true
		}
	}
	slices.Sort(seeds)
	return fmt.Sprintf("measure_s %v, seeds %v", sortedFloats(window), slices.Compact(seeds))
}

func sortedFloats(set map[float64]bool) []float64 {
	out := make([]float64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// verdict applies the regression rule to one workload × metric. worse is the
// share of the old median by which the new median is worse (negative when it
// is better).
//
//   - spread wider than the bound on either side: unresolved — unless every
//     new run beats every old run, which no amount of spread explains away;
//   - otherwise regressed when worse exceeds the bound, ok when it does not.
func verdict(m metricSpec, old, new []float64) (worse float64, v string) {
	sign := 1.0 // lower is better
	if m.Better == "higher" {
		sign = -1
	}
	mo, mn := eval.Median(old), eval.Median(new)
	worse = sign * (mn - mo) / math.Abs(mo)
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	// One run on a side has no spread to judge; the medians decide alone.
	wide := len(old) > 1 && spread(old) > m.Bound || len(new) > 1 && spread(new) > m.Bound
	switch {
	case allBetter:
		return worse, "ok"
	case wide:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// change, the bound and the verdict, and returns the exit code: 1 when
// anything regressed. Two files whose runs of a workload were not taken alike
// — another window, other seeds — are refused: their inputs differ, so their
// numbers do too, whatever the code did.
func compareFiles(w io.Writer, sp *spec, oldPath, newPath string) (int, error) {
	old, err := loadSuite(oldPath)
	if err != nil {
		return 0, err
	}
	cur, err := loadSuite(newPath)
	if err != nil {
		return 0, err
	}
	for _, wl := range sp.Workloads {
		if o, n := old.taken(wl.Name), cur.taken(wl.Name); o != n {
			return 0, fmt.Errorf("%s was not taken alike: %s has %s, %s has %s", wl.Name, oldPath, o, newPath, n)
		}
	}
	fmt.Fprintf(w, "old: %s (commit %s)\nnew: %s (commit %s)\n", oldPath, old.Env.Commit, newPath, cur.Env.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\tworse by\tbound\truns\tverdict")
	code := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			o, n := old.values(wl.Name, m.Name), cur.values(wl.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			worse, v := verdict(m, o, n)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, m.Unit, eval.Median(o), eval.Median(n), 100*worse, 100*m.Bound, len(o), len(n), v)
		}
	}
	tw.Flush()

	// The metrics that carry no bound still say where a change landed; their
	// spreads say how far the medians can be trusted.
	fmt.Fprintln(w, "\ndiagnostics (no bound)")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\tchange\told spread\tnew spread\truns")
	bounded := map[string]bool{}
	for _, m := range sp.EndToEnd {
		bounded[m.Name] = true
	}
	for _, wl := range sp.Workloads {
		for _, name := range old.metricNames(wl.Name) {
			o, n := old.values(wl.Name, name), cur.values(wl.Name, name)
			if bounded[name] || len(n) == 0 {
				continue
			}
			mo, mn := eval.Median(o), eval.Median(n)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%s\t%s\t%s\t%d/%d\n",
				wl.Name, name, old.unit(wl.Name, name), mo, mn, percent((mn-mo)/math.Abs(mo)), percent(spread(o)), percent(spread(n)), len(o), len(n))
		}
	}
	tw.Flush()
	return code, nil
}

// percent renders a share; one that does not exist — the spread of a single
// run, a change from zero — is a dash.
func percent(share float64) string {
	if math.IsNaN(share) || math.IsInf(share, 0) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*share)
}

// metricNames lists, in order, every metric a suite's untraced runs of one
// workload report.
func (st *suite) metricNames(workload string) []string {
	seen := map[string]bool{}
	for _, r := range st.Runs {
		if r.Workload == workload && !r.Traced {
			for name := range r.Metrics {
				seen[name] = true
			}
		}
	}
	return sortedKeys(seen)
}

func (st *suite) unit(workload, name string) string {
	for _, r := range st.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			return m.Unit
		}
	}
	return ""
}
