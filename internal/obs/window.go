package obs

import (
	"math"
	"sync"
	"time"
)

// Rolling-window defaults: 12 slots of 5 s give a 60 s window, so the
// quantiles a dashboard reads describe the last minute of traffic, not the
// process lifetime.
const (
	DefaultWindow      = 60 * time.Second
	DefaultWindowSlots = 12
)

// WindowedHistogram couples a cumulative Histogram (still served on /metrics
// with its full bucket ladder) with a rotating ring of per-slot bucket
// counts. Reads over the ring cover only the last window, so a ten-minute
// load run reports the *current* p99 instead of a lifetime estimate diluted
// by warmup.
//
// Observations are double-counted on purpose: once into the cumulative
// histogram (atomic, lock-free, feeds Prometheus) and once into the active
// ring slot (under a short mutex). The ring rotates lazily on access; a slot
// older than the window is reset before reuse, so idle series decay to empty
// without a background goroutine.
//
// A nil *WindowedHistogram is a no-op, like every other obs instrument.
type WindowedHistogram struct {
	hist *Histogram
	slot time.Duration // width of one ring slot
	now  func() time.Time

	mu    sync.Mutex
	ring  []windowSlot
	epoch int64 // epoch of the slot last written (now / slot width)
}

type windowSlot struct {
	epoch  int64
	counts []uint64 // len(upper)+1, last is +Inf
	n      uint64
	sum    float64
}

// NewWindowedHistogram wraps h with a rolling window of the given total
// width split into slots ring slots. window ≤ 0 selects DefaultWindow,
// slots ≤ 0 selects DefaultWindowSlots, and a nil now selects time.Now.
// Returns nil for a nil h so call sites stay conditional-free.
func NewWindowedHistogram(h *Histogram, window time.Duration, slots int, now func() time.Time) *WindowedHistogram {
	if h == nil {
		return nil
	}
	if window <= 0 {
		window = DefaultWindow
	}
	if slots <= 0 {
		slots = DefaultWindowSlots
	}
	if now == nil {
		now = time.Now
	}
	w := &WindowedHistogram{
		hist: h,
		slot: window / time.Duration(slots),
		now:  now,
		ring: make([]windowSlot, slots),
	}
	for i := range w.ring {
		w.ring[i] = windowSlot{epoch: -1, counts: make([]uint64, len(h.upper)+1)}
	}
	return w
}

// Observe records one sample into both the cumulative histogram and the
// active window slot.
func (w *WindowedHistogram) Observe(v float64) {
	w.observe(v, "")
}

// ObserveWithExemplar is Observe plus an exemplar: the sample's bucket in the
// cumulative histogram remembers traceID (see Histogram.ObserveWithExemplar),
// linking the observation to a trace resolvable at /debug/traces/{id}.
func (w *WindowedHistogram) ObserveWithExemplar(v float64, traceID string) {
	w.observe(v, traceID)
}

func (w *WindowedHistogram) observe(v float64, traceID string) {
	if w == nil {
		return
	}
	w.hist.ObserveWithExemplar(v, traceID)
	i := w.hist.bucketIndex(v)
	e := w.now().UnixNano() / int64(w.slot)
	w.mu.Lock()
	s := w.slotFor(e)
	s.counts[i]++
	s.n++
	s.sum += v
	w.epoch = e
	w.mu.Unlock()
}

// slotFor returns the ring slot for epoch e, resetting it first when it
// still holds counts from an earlier rotation. Requires w.mu held.
func (w *WindowedHistogram) slotFor(e int64) *windowSlot {
	s := &w.ring[int(e%int64(len(w.ring)))]
	if s.epoch != e {
		for i := range s.counts {
			s.counts[i] = 0
		}
		s.n, s.sum, s.epoch = 0, 0, e
	}
	return s
}

// snapshot sums the live slots (epoch within the window ending now) into one
// flat view. Requires w.mu held.
func (w *WindowedHistogram) snapshotLocked(e int64) (counts []uint64, n uint64, sum float64) {
	counts = make([]uint64, len(w.hist.upper)+1)
	min := e - int64(len(w.ring)) + 1
	for i := range w.ring {
		s := &w.ring[i]
		if s.epoch < min || s.epoch > e {
			continue
		}
		for j, c := range s.counts {
			counts[j] += c
		}
		n += s.n
		sum += s.sum
	}
	return counts, n, sum
}

// Count returns the number of observations inside the current window.
func (w *WindowedHistogram) Count() uint64 {
	if w == nil {
		return 0
	}
	e := w.now().UnixNano() / int64(w.slot)
	w.mu.Lock()
	defer w.mu.Unlock()
	_, n, _ := w.snapshotLocked(e)
	return n
}

// Sum returns the sum of observations inside the current window.
func (w *WindowedHistogram) Sum() float64 {
	if w == nil {
		return 0
	}
	e := w.now().UnixNano() / int64(w.slot)
	w.mu.Lock()
	defer w.mu.Unlock()
	_, _, sum := w.snapshotLocked(e)
	return sum
}

// Quantile estimates the q-quantile over the current window only, with the
// same bucket interpolation as Histogram.Quantile. NaN when the window is
// empty or q is out of range.
func (w *WindowedHistogram) Quantile(q float64) float64 {
	if w == nil || q < 0 || q > 1 {
		return math.NaN()
	}
	e := w.now().UnixNano() / int64(w.slot)
	w.mu.Lock()
	counts, total, _ := w.snapshotLocked(e)
	w.mu.Unlock()
	return quantileFromCounts(w.hist.upper, counts, total, q)
}

// quantileFromCounts interpolates the q-quantile from one flat bucket-count
// vector (len(upper)+1, last slot +Inf) — the shared core of the lifetime
// and windowed estimators.
func quantileFromCounts(upper []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i, ub := range upper {
		c := float64(counts[i])
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = upper[i-1]
			}
			if c == 0 {
				return ub
			}
			return lo + (ub-lo)*(rank-cum)/c
		}
		cum += c
	}
	if len(upper) == 0 {
		return math.NaN()
	}
	return upper[len(upper)-1]
}
