package server

import "sync"

// idemEntry is the serializable form of one completed key, used to seed the
// cache from recovery and to carry it into snapshots.
type idemEntry struct {
	Key    string
	Status int
	Body   []byte
}

// idemCache deduplicates ingestion by idempotency key so client retries and
// outbox replays are exactly-once in effect. Keys are tracked through three
// phases: in-flight (a first delivery is being processed), completed (the
// mutation's canonical response is cached for replay), and evicted (FIFO,
// bounded capacity). Executions that commit nothing release the key so a
// later retry can try again.
//
// Invariants, preserved across every interleaving of begin/complete/release
// and FIFO eviction at the capacity boundary:
//   - order holds exactly the completed keys, each once, oldest first;
//   - an in-flight marker (nil entry) is never in order and is only removed
//     by its owner's release, never by eviction;
//   - release removes only in-flight markers — it cannot
//     delete a completed record installed by complete().
type idemCache struct {
	mu       sync.Mutex
	entries  map[string]*cannedResponse // nil value marks in-flight
	order    []string                   // completed keys, oldest first
	capacity int
}

func newIdemCache(capacity int) *idemCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &idemCache{entries: map[string]*cannedResponse{}, capacity: capacity}
}

// begin claims key for execution. seen=false means the caller owns the key
// and must call release when the execution ends. seen=true with a record
// means replay it; seen=true with nil means another delivery of the same key
// is mid-flight.
func (c *idemCache) begin(key string) (seen bool, rec *cannedResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec, ok := c.entries[key]; ok {
		return true, rec
	}
	c.entries[key] = nil
	return false, nil
}

// complete installs the canonical response for key; it is the only way a
// key becomes completed. The store's durable mutators call it under their
// own lock, so the cached response becomes visible atomically with the
// mutation it acknowledges — whether or not the key was claimed with begin.
// Idempotent: a second complete for a completed key is ignored.
func (c *idemCache) complete(key string, status int, body []byte) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completeLocked(key, status, body)
}

func (c *idemCache) completeLocked(key string, status int, body []byte) {
	if rec, ok := c.entries[key]; ok && rec != nil {
		return
	}
	c.entries[key] = &cannedResponse{status, body}
	c.order = append(c.order, key)
	c.evictLocked()
}

// release ends an execution begun with begin: it frees the in-flight marker
// so a retry can re-execute. A completed record under the same key (the
// mutation committed) is left alone, with its order slot.
func (c *idemCache) release(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec, ok := c.entries[key]; ok && rec == nil {
		delete(c.entries, key)
	}
}

// evictLocked enforces the FIFO capacity bound over completed keys.
// In-flight markers are owned by a live request and are never evicted; a
// key whose entry vanished already is simply dropped from order.
func (c *idemCache) evictLocked() {
	for len(c.order) > c.capacity {
		k := c.order[0]
		c.order = c.order[1:]
		if rec, ok := c.entries[k]; ok && rec != nil {
			delete(c.entries, k)
		}
	}
}

// seed loads recovered completed entries, oldest first, as if they had just
// completed; the capacity bound applies.
func (c *idemCache) seed(entries []idemEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		if e.Key == "" {
			continue
		}
		c.completeLocked(e.Key, e.Status, e.Body)
	}
}

// snapshot exports the completed entries, oldest first, for inclusion in a
// store snapshot.
func (c *idemCache) snapshot() []idemEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]idemEntry, 0, len(c.order))
	for _, k := range c.order {
		if rec, ok := c.entries[k]; ok && rec != nil {
			out = append(out, idemEntry{Key: k, Status: rec.status, Body: rec.body})
		}
	}
	return out
}
