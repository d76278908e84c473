package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"crowdwifi/internal/api"
	"crowdwifi/internal/obs"
)

// promSeries is one exposition sample line, split into its series name (the
// family name or its _bucket/_sum/_count derivative), rendered label string,
// and raw value (kept as text so re-emission is byte-faithful).
type promSeries struct {
	name   string
	labels string
	value  string
}

// promFamily is one # TYPE block: the family's declared type, help, and its
// sample lines in input order.
type promFamily struct {
	name, typ, help string
	series          []promSeries
}

// parseExposition parses the Prometheus text format our registries produce:
// optional # HELP, a # TYPE per family, then that family's samples. Samples
// are attached to the most recently declared family (our producer always
// groups them); a malformed line is an error so the federation endpoint
// surfaces a broken shard scrape instead of silently dropping it.
func parseExposition(b []byte) ([]*promFamily, error) {
	var fams []*promFamily
	byName := map[string]*promFamily{}
	var cur *promFamily
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			f := byName[name]
			if f == nil {
				f = &promFamily{name: name}
				byName[name] = f
				fams = append(fams, f)
			}
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return nil, fmt.Errorf("malformed TYPE line %q", line)
				}
				f.typ = fields[3]
			} else if len(fields) == 4 {
				f.help = fields[3]
			}
			cur = f
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		if cur == nil || !sampleBelongsTo(cur, name) {
			// An untyped series with no preceding family header.
			f := byName[name]
			if f == nil {
				f = &promFamily{name: name, typ: "untyped"}
				byName[name] = f
				fams = append(fams, f)
			}
			cur = f
		}
		cur.series = append(cur.series, promSeries{name: name, labels: labels, value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// sampleBelongsTo reports whether a sample name is part of family f.
func sampleBelongsTo(f *promFamily, name string) bool {
	if name == f.name {
		return true
	}
	if f.typ != "histogram" {
		return false
	}
	return name == f.name+"_bucket" || name == f.name+"_sum" || name == f.name+"_count"
}

// parseSample splits `name{labels} value` / `name value` into parts and
// validates that value parses as a float.
func parseSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", "", fmt.Errorf("malformed sample %q", line)
		}
		name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
	} else {
		k := strings.IndexByte(line, ' ')
		if k < 0 {
			return "", "", "", fmt.Errorf("malformed sample %q", line)
		}
		name, rest = line[:k], strings.TrimSpace(line[k+1:])
	}
	// Ignore a trailing timestamp if one ever appears.
	if k := strings.IndexByte(rest, ' '); k >= 0 {
		rest = rest[:k]
	}
	if _, err := strconv.ParseFloat(rest, 64); err != nil {
		return "", "", "", fmt.Errorf("malformed sample value %q", line)
	}
	return name, labels, rest, nil
}

// joinShardLabel appends shard="id" to a rendered label string.
func joinShardLabel(labels, shard string) string {
	extra := `shard="` + shard + `"`
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// shardKey matches a shard label *key* in a rendered label string: at the
// start or after a comma. Inside a rendered value a double quote is always
// escaped, so an unescaped `shard="` in those positions can only be a key.
var shardKey = regexp.MustCompile(`(^|,)shard="`)

// renameShardClash renames a pre-existing shard label to exported_shard —
// the same convention Prometheus federation uses for clashing labels — so
// stamping the source's shard label never produces a duplicate key. The
// router's own per-shard series (shard_mode, upstream_errors) are the case
// in point: their shard label names the *observed* shard, not the source.
func renameShardClash(labels string) string {
	return shardKey.ReplaceAllString(labels, `${1}exported_shard="`)
}

// FederatedMetrics returns the router's cluster-wide /metrics handler: every
// shard's exposition is scraped concurrently and merged with the router's
// own registry into one document. Every sample gains a shard label (the
// router's own carry shard="router"); counter and histogram families
// additionally get shard="all" series summing the per-shard samples by
// original label set, so fleet-wide totals are one query away while
// per-shard slices stay addressable. Gauges stay per-shard — summing
// last-seen gauge samples across processes is rarely meaningful. Unreachable
// or malformed shard scrapes are skipped and named in a
// crowdwifi_federation_failed_scrapes series plus a comment.
func (rt *Router) FederatedMetrics(own *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

		type sourceScrape struct {
			shard string
			fams  []*promFamily
		}
		var sources []sourceScrape
		var failed []string

		if own != nil {
			var buf bytes.Buffer
			if err := own.WritePrometheus(&buf); err == nil {
				if fams, err := parseExposition(buf.Bytes()); err == nil {
					sources = append(sources, sourceScrape{shard: "router", fams: fams})
				}
			}
		}
		for _, f := range rt.fanOutDebug(r.Context(), "/metrics") {
			if f.err != nil || f.notFound {
				failed = append(failed, f.id)
				continue
			}
			fams, err := parseExposition(f.body)
			if err != nil {
				failed = append(failed, f.id)
				continue
			}
			sources = append(sources, sourceScrape{shard: f.id, fams: fams})
		}

		// Merge family metadata across sources.
		type mergedFamily struct {
			name, typ, help string
			lines           []string           // per-shard samples, input order
			sums            map[string]float64 // histogram/counter: series name + "\xff" + labels → sum
			sumOrder        []string
		}
		merged := map[string]*mergedFamily{}
		var order []string
		for _, src := range sources {
			for _, fam := range src.fams {
				mf := merged[fam.name]
				if mf == nil {
					mf = &mergedFamily{name: fam.name, typ: fam.typ, help: fam.help,
						sums: map[string]float64{}}
					merged[fam.name] = mf
					order = append(order, fam.name)
				}
				if mf.help == "" {
					mf.help = fam.help
				}
				summable := fam.typ == "counter" || fam.typ == "histogram"
				for _, s := range fam.series {
					labels := renameShardClash(s.labels)
					line := s.name + "{" + joinShardLabel(labels, src.shard) + "} " + s.value
					mf.lines = append(mf.lines, line)
					if summable {
						key := s.name + "\xff" + labels
						if _, ok := mf.sums[key]; !ok {
							mf.sumOrder = append(mf.sumOrder, key)
						}
						v, _ := strconv.ParseFloat(s.value, 64)
						mf.sums[key] += v
					}
				}
			}
		}
		sort.Strings(order)

		var out bytes.Buffer
		for _, name := range order {
			mf := merged[name]
			if mf.help != "" {
				fmt.Fprintf(&out, "# HELP %s %s\n", mf.name, mf.help)
			}
			fmt.Fprintf(&out, "# TYPE %s %s\n", mf.name, mf.typ)
			sort.Strings(mf.lines)
			for _, line := range mf.lines {
				out.WriteString(line)
				out.WriteByte('\n')
			}
			if len(sources) > 1 {
				sort.Strings(mf.sumOrder)
				for _, key := range mf.sumOrder {
					sep := strings.IndexByte(key, '\xff')
					sname, labels := key[:sep], key[sep+1:]
					fmt.Fprintf(&out, "%s{%s} %s\n", sname, joinShardLabel(labels, "all"),
						strconv.FormatFloat(mf.sums[key], 'g', -1, 64))
				}
			}
		}
		fmt.Fprintf(&out, "# TYPE crowdwifi_federation_failed_scrapes gauge\n")
		fmt.Fprintf(&out, "crowdwifi_federation_failed_scrapes %d\n", len(failed))
		if len(failed) > 0 {
			sort.Strings(failed)
			fmt.Fprintf(&out, "# federation: unreachable shards: %s\n", strings.Join(failed, ","))
		}
		_, _ = w.Write(out.Bytes())
	})
}

// DriftEntry is one segment found resident on a shard the router's ring does
// not consider its owner — the residue a reconcile pass repairs.
type DriftEntry struct {
	Segment  string `json:"segment"`
	Resident string `json:"resident"`
	Owner    string `json:"owner"`
}

// ShardView is one shard's slice of the /debug/cluster document.
type ShardView struct {
	Reachable bool                          `json:"reachable"`
	Mode      string                        `json:"mode,omitempty"`
	Error     string                        `json:"error,omitempty"`
	Segments  map[string]api.SegmentDigest  `json:"segments,omitempty"`
	WAL       json.RawMessage               `json:"wal,omitempty"`
	Quantiles map[string]map[string]float64 `json:"quantiles,omitempty"`
	OwnedSegs int                           `json:"ownedSegments"`
}

// ClusterView is the /debug/cluster document: ring ownership, per-shard
// digests and modes, WAL depth, windowed latency quantiles, and reconcile
// drift, in one JSON fetch.
type ClusterView struct {
	GeneratedAt time.Time            `json:"generatedAt"`
	Members     []string             `json:"members"`
	Shards      map[string]ShardView `json:"shards"`
	Drift       []DriftEntry         `json:"drift"`
}

// shardVars is the subset of a shard's /debug/vars the cluster view reads.
type shardVars struct {
	Quantiles map[string]map[string]float64 `json:"crowdwifi_histogram_quantiles"`
}

// shardDigest mirrors api.DigestResponse with the WAL block kept raw.
type shardDigest struct {
	Self     string                       `json:"self"`
	Segments map[string]api.SegmentDigest `json:"segments"`
	WAL      json.RawMessage              `json:"wal"`
}

// ClusterHandler returns the router's /debug/cluster surface: it fans the
// digest and vars endpoints out to every shard and combines them with the
// router's ring and last-seen shard modes.
func (rt *Router) ClusterHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		view := ClusterView{
			GeneratedAt: time.Now(),
			Members:     rt.Members(),
			Shards:      map[string]ShardView{},
			Drift:       []DriftEntry{},
		}
		modes := rt.metrics.modesSnapshot()

		digests := rt.fanOutDebug(r.Context(), api.RouteClusterDigest)
		vars := rt.fanOutDebug(r.Context(), "/debug/vars")
		varsByShard := map[string][]byte{}
		for _, f := range vars {
			if f.err == nil && !f.notFound {
				varsByShard[f.id] = f.body
			}
		}
		rg := rt.ring.Load()
		for _, f := range digests {
			sv := ShardView{Reachable: f.err == nil && !f.notFound, Mode: modes[f.id]}
			if f.err != nil {
				sv.Error = f.err.Error()
			}
			if sv.Reachable {
				var d shardDigest
				if err := json.Unmarshal(f.body, &d); err != nil {
					sv.Error = "bad digest: " + err.Error()
					sv.Reachable = false
				} else {
					sv.Segments = d.Segments
					sv.WAL = d.WAL
					for seg, dig := range d.Segments {
						if !dig.HasData() {
							continue
						}
						sv.OwnedSegs++
						if owner := rg.Owner(seg); owner != "" && owner != f.id {
							view.Drift = append(view.Drift, DriftEntry{
								Segment: seg, Resident: f.id, Owner: owner,
							})
						}
					}
				}
			}
			if b, ok := varsByShard[f.id]; ok {
				var v shardVars
				if err := json.Unmarshal(b, &v); err == nil {
					sv.Quantiles = v.Quantiles
				}
			}
			view.Shards[f.id] = sv
		}
		sort.Slice(view.Drift, func(i, j int) bool {
			if view.Drift[i].Segment != view.Drift[j].Segment {
				return view.Drift[i].Segment < view.Drift[j].Segment
			}
			return view.Drift[i].Resident < view.Drift[j].Resident
		})
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}
