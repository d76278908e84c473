package client

import (
	"sync"
	"time"
)

// DefaultOutboxCapacity bounds a zero-configured outbox.
const DefaultOutboxCapacity = 256

// Entry is one parked upload: the request path, the encoded body, and the
// idempotency key minted for the original attempt. Replays reuse the
// key, so the server deduplicates an entry whose original attempt was
// actually processed (a response lost in transit).
type Entry struct {
	Path       string
	Body       []byte
	Key        string
	EnqueuedAt time.Time
	// ContentType is the parked body's wire format ("" means JSON); replays
	// send it back verbatim, so a report drains as the frame it was parked
	// as.
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

// peek returns the head entry without removing it.
func (o *Outbox) peek() (Entry, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.entries) == 0 {
		return Entry{}, false
	}
	return o.entries[0], true
}

// dropHead removes the head entry if it still carries key (a concurrent
// drain may have already advanced the queue).
func (o *Outbox) dropHead(key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.entries) > 0 && o.entries[0].Key == key {
		o.entries = append(o.entries[:0], o.entries[1:]...)
	}
}

// peekRun returns copies of up to max entries from the head sharing path —
// the contiguous run a batch drain can deliver in one round-trip without
// reordering the FIFO. Empty when the head's path differs.
func (o *Outbox) peekRun(path string, max int) []Entry {
	o.mu.Lock()
	defer o.mu.Unlock()
	var run []Entry
	for _, e := range o.entries {
		if e.Path != path || len(run) >= max {
			break
		}
		run = append(run, e)
	}
	return run
}

// remove deletes the entries carrying the given keys, preserving the order
// of the rest, and returns how many were removed.
func (o *Outbox) remove(keys map[string]bool) int {
	if len(keys) == 0 {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	kept := o.entries[:0]
	removed := 0
	for _, e := range o.entries {
		if keys[e.Key] {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	o.entries = kept
	return removed
}
