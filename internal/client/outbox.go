package client

import (
	"slices"
	"sync"
	"time"
)

// DefaultOutboxCapacity bounds a zero-configured outbox.
const DefaultOutboxCapacity = 256

// Entry is one parked upload: the request path, the bytes a drain sends,
// and the idempotency key minted for the original attempt. Replays reuse
// the key, so the server deduplicates an entry whose original attempt was
// actually processed (a response lost in transit). A parked report is one
// frame that carries its key, so it drains as it stands both alone and in a
// batch.
type Entry struct {
	Path       string
	Body       []byte
	Key        string
	EnqueuedAt time.Time
	// ContentType is the parked body's wire format; replays send it back
	// verbatim.
	ContentType string
	// Traceparent preserves the originating upload's trace context so the
	// eventual drain attempt joins the same trace (one logical request, one
	// trace, even across a queue-and-drain gap).
	Traceparent string
}

// Outbox is a bounded FIFO store-and-forward queue for uploads that could
// not be delivered. When full, the oldest entry is evicted — in a
// crowdsensing pipeline fresh observations are worth more than stale ones —
// and counted as crowdwifi_client_outbox_dropped_total{reason="evicted"}.
// All methods are safe for concurrent use.
type Outbox struct {
	mu       sync.Mutex
	entries  []Entry
	capacity int
	now      func() time.Time
}

// NewOutbox returns an empty outbox holding at most capacity entries
// (≤ 0 selects DefaultOutboxCapacity).
func NewOutbox(capacity int) *Outbox {
	if capacity <= 0 {
		capacity = DefaultOutboxCapacity
	}
	return &Outbox{capacity: capacity, now: time.Now}
}

// Len reports the number of queued entries.
func (o *Outbox) Len() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.entries)
}

// OldestAge reports how long the head entry has been waiting (0 when empty).
func (o *Outbox) OldestAge() time.Duration {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.entries) == 0 {
		return 0
	}
	return o.now().Sub(o.entries[0].EnqueuedAt)
}

// enqueue parks an upload, evicting the oldest entries when full, and
// returns how many it evicted.
func (o *Outbox) enqueue(e Entry) (evicted int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e.EnqueuedAt.IsZero() {
		e.EnqueuedAt = o.now()
	}
	if len(o.entries) >= o.capacity {
		evicted = len(o.entries) - o.capacity + 1
		o.entries = append(o.entries[:0], o.entries[evicted:]...)
	}
	o.entries = append(o.entries, e)
	return evicted
}

// peekRun returns copies of up to max entries from the head sharing the
// head's path: the run a drain can deliver in one round trip without
// reordering the FIFO. Empty when the outbox is.
func (o *Outbox) peekRun(max int) []Entry {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for n < len(o.entries) && n < max && o.entries[n].Path == o.entries[0].Path {
		n++
	}
	return slices.Clone(o.entries[:n])
}

// remove deletes the entries carrying the given keys, preserving the order
// of the rest.
func (o *Outbox) remove(keys map[string]bool) {
	if len(keys) == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.entries = slices.DeleteFunc(o.entries, func(e Entry) bool { return keys[e.Key] })
}
