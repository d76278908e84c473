package trace

import (
	"sort"
	"sync"
	"time"
)

// Store retention defaults.
const (
	DefaultCapacity        = 256
	defaultSlowPerEndpoint = 4
)

// TraceSummary is the list-view form of one retained trace.
type TraceSummary struct {
	ID         string    `json:"id"`
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"durationNs"`
	Spans      int       `json:"spans"`
	Error      bool      `json:"error,omitempty"`
}

// TraceData is one trace as this process holds it: every retained span,
// ordered by start time.
type TraceData struct {
	ID         string     `json:"id"`
	Root       string     `json:"root"`
	Start      time.Time  `json:"start"`
	DurationNS int64      `json:"durationNs"`
	Error      bool       `json:"error,omitempty"`
	Spans      []SpanData `json:"spans"`
}

func (t *TraceData) summary() TraceSummary {
	return TraceSummary{
		ID:         t.ID,
		Root:       t.Root,
		Start:      t.Start,
		DurationNS: t.DurationNS,
		Spans:      len(t.Spans),
		Error:      t.Error,
	}
}

// Store is the per-process trace retention buffer. Committed trace fragments
// merge by trace ID; retention is three overlapping views:
//
//   - recent: a FIFO ring of the last Capacity traces;
//   - errors: a FIFO ring of traces containing a failed span;
//   - slow: the slowest SlowPerEndpoint traces per root span name.
//
// A trace evicted from the recent ring survives while the error ring or a
// slow list still references it — tail-based sampling: the interesting
// traces outlive the merely recent ones.
type Store struct {
	mu        sync.Mutex
	capRecent int
	capErr    int
	slowN     int
	traces    map[string]*TraceData
	recent    []string            // FIFO, oldest first
	errs      []string            // FIFO, oldest first
	slow      map[string][]string // root name → ids, slowest first
}

func newStore(capacity, errCapacity, slowN int) *Store {
	return &Store{
		capRecent: capacity,
		capErr:    errCapacity,
		slowN:     slowN,
		traces:    map[string]*TraceData{},
		slow:      map[string][]string{},
	}
}

func contains(ids []string, id string) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

func remove(ids []string, id string) []string {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// inSlow reports whether any slow list references id.
func (s *Store) inSlow(id string) bool {
	for _, ids := range s.slow {
		if contains(ids, id) {
			return true
		}
	}
	return false
}

// add merges one committed fragment into the store.
func (s *Store) add(id string, spans []SpanData, hasErr bool) {
	if s == nil || len(spans) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	tr, ok := s.traces[id]
	if !ok {
		tr = &TraceData{ID: id}
		s.traces[id] = tr
		s.recent = append(s.recent, id)
	} else if tr.Root != "" {
		// Re-place in the slow view after the merge changes the duration.
		s.slow[tr.Root] = remove(s.slow[tr.Root], id)
	}
	tr.Spans = append(tr.Spans, spans...)
	tr.Error = tr.Error || hasErr
	s.refreshLocked(tr)

	if tr.Error && !contains(s.errs, id) {
		s.errs = append(s.errs, id)
	}
	s.placeSlowLocked(tr)

	for len(s.recent) > s.capRecent {
		old := s.recent[0]
		s.recent = s.recent[1:]
		if !contains(s.errs, old) && !s.inSlow(old) {
			delete(s.traces, old)
		}
	}
	for len(s.errs) > s.capErr {
		old := s.errs[0]
		s.errs = s.errs[1:]
		if !contains(s.recent, old) && !s.inSlow(old) {
			delete(s.traces, old)
		}
	}
}

// refreshLocked recomputes a trace's derived fields (root, start, duration)
// and sorts its spans by start time.
func (s *Store) refreshLocked(tr *TraceData) {
	sort.SliceStable(tr.Spans, func(i, j int) bool { return tr.Spans[i].Start.Before(tr.Spans[j].Start) })
	tr.Start = tr.Spans[0].Start
	var end time.Time
	root := -1
	for i := range tr.Spans {
		if e := tr.Spans[i].Start.Add(time.Duration(tr.Spans[i].DurationNS)); e.After(end) {
			end = e
		}
		if root < 0 && (tr.Spans[i].ParentID == "" || tr.Spans[i].Remote) {
			root = i
		}
	}
	if root < 0 {
		root = 0
	}
	tr.Root = tr.Spans[root].Name
	tr.DurationNS = int64(end.Sub(tr.Start))
}

// placeSlowLocked inserts a trace into its endpoint's slowest-N list,
// evicting whatever no longer qualifies.
func (s *Store) placeSlowLocked(tr *TraceData) {
	ids := s.slow[tr.Root]
	ids = append(ids, tr.ID)
	sort.SliceStable(ids, func(i, j int) bool {
		a, b := s.traces[ids[i]], s.traces[ids[j]]
		if a == nil || b == nil {
			return b == nil
		}
		return a.DurationNS > b.DurationNS
	})
	for len(ids) > s.slowN {
		old := ids[len(ids)-1]
		ids = ids[:len(ids)-1]
		if old != tr.ID && !contains(s.recent, old) && !contains(s.errs, old) && !contains(ids, old) {
			delete(s.traces, old)
		}
	}
	s.slow[tr.Root] = ids
}

func (s *Store) summariesLocked(ids []string, newestFirst bool) []TraceSummary {
	out := make([]TraceSummary, 0, len(ids))
	for _, id := range ids {
		if tr, ok := s.traces[id]; ok {
			out = append(out, tr.summary())
		}
	}
	if newestFirst {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// Recent returns the retained recent traces, newest first.
func (s *Store) Recent() []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.summariesLocked(s.recent, true)
}

// Errors returns the retained error traces, newest first.
func (s *Store) Errors() []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.summariesLocked(s.errs, true)
}

// Slowest returns the slowest retained traces per root span name.
func (s *Store) Slowest() map[string][]TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]TraceSummary, len(s.slow))
	for name, ids := range s.slow {
		out[name] = s.summariesLocked(ids, false)
	}
	return out
}

// Get returns a copy of one retained trace by hex id.
func (s *Store) Get(id string) (TraceData, bool) {
	if s == nil {
		return TraceData{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tr, ok := s.traces[id]
	if !ok {
		return TraceData{}, false
	}
	cp := *tr
	cp.Spans = append([]SpanData(nil), tr.Spans...)
	return cp, true
}
