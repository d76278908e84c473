package server

import (
	"fmt"
	"testing"
)

// checkIdemInvariants asserts the structural invariants the cache documents:
// order holds exactly the completed keys, once each, and no in-flight marker
// ever appears in order.
func checkIdemInvariants(t *testing.T, c *idemCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[string]bool{}
	completed := 0
	for _, k := range c.order {
		if seen[k] {
			t.Fatalf("key %q appears twice in order", k)
		}
		seen[k] = true
		rec, ok := c.entries[k]
		if !ok {
			t.Fatalf("order holds %q with no entry", k)
		}
		if rec == nil {
			t.Fatalf("in-flight marker %q leaked into order", k)
		}
	}
	for k, rec := range c.entries {
		if rec != nil {
			completed++
			if !seen[k] {
				t.Fatalf("completed key %q missing from order", k)
			}
		}
	}
	if completed != len(c.order) {
		t.Fatalf("order len %d != completed entries %d", len(c.order), completed)
	}
	if len(c.order) > c.capacity {
		t.Fatalf("order len %d exceeds capacity %d", len(c.order), c.capacity)
	}
}

// TestIdemCacheEvictionReleaseInterleaving drives the cache exactly at its
// capacity boundary while an in-flight key is pending, then releases it, and
// verifies eviction pressure can never corrupt the order/entries pairing —
// the regression this guards: a key evicted while its release was pending
// used to be scrubbed twice, leaving order referencing a dead entry.
func TestIdemCacheEvictionReleaseInterleaving(t *testing.T) {
	c := newIdemCache(3)

	// An in-flight key claims its marker before the cache fills.
	if seen, _ := c.begin("inflight"); seen {
		t.Fatal("fresh key reported seen")
	}

	// Fill past capacity: FIFO eviction churns while "inflight" is pending.
	for i := 0; i < 7; i++ {
		k := fmt.Sprintf("k%d", i)
		if seen, _ := c.begin(k); seen {
			t.Fatalf("fresh key %s reported seen", k)
		}
		c.complete(k, 201, []byte(fmt.Sprintf("body-%d", i)))
		checkIdemInvariants(t, c)
	}

	// The in-flight marker must have survived all eviction pressure.
	if seen, rec := c.begin("inflight"); !seen || rec != nil {
		t.Fatalf("in-flight marker lost under eviction (seen=%v rec=%v)", seen, rec)
	}

	// Now the owner fails: release must drop only the marker.
	c.release("inflight")
	checkIdemInvariants(t, c)
	if seen, _ := c.begin("inflight"); seen {
		t.Fatal("released key still claimed")
	}
	// This retry succeeds; the cache is exactly at capacity again.
	c.complete("inflight", 201, []byte("retried"))
	checkIdemInvariants(t, c)
	if seen, rec := c.begin("inflight"); !seen || rec == nil || string(rec.body) != "retried" {
		t.Fatalf("retry not cached (seen=%v rec=%+v)", seen, rec)
	}

	// Evict "inflight" itself by pushing more keys through, then release it
	// late (a straggler duplicate failing after the record was evicted): the
	// scrub must not resurrect or double-remove anything.
	for i := 7; i < 11; i++ {
		k := fmt.Sprintf("k%d", i)
		c.begin(k)
		c.complete(k, 201, []byte("x"))
	}
	checkIdemInvariants(t, c)
	if seen, _ := c.begin("inflight"); seen {
		t.Fatal("evicted key still cached")
	}
	c.release("inflight") // late failure of the straggler
	checkIdemInvariants(t, c)
}

// TestIdemCacheReleaseCannotDeleteCompleted: when the durable mutator
// completes a key mid-flight (complete bypasses ownership), the release that
// ends the request must not delete the completed record.
func TestIdemCacheReleaseCannotDeleteCompleted(t *testing.T) {
	c := newIdemCache(3)
	if seen, _ := c.begin("k"); seen {
		t.Fatal("fresh key seen")
	}
	c.complete("k", 201, []byte("canonical"))
	// Whatever the handler went on to answer (e.g. the client hung up and the
	// response write failed), release must not undo the completion.
	c.release("k")
	checkIdemInvariants(t, c)
	seen, rec := c.begin("k")
	if !seen || rec == nil || string(rec.body) != "canonical" {
		t.Fatalf("completed record lost (seen=%v rec=%+v)", seen, rec)
	}

	// And a second complete must not duplicate the order slot.
	c.begin("k2")
	c.complete("k2", 201, []byte("canonical2"))
	c.complete("k2", 201, []byte("second-copy"))
	checkIdemInvariants(t, c)
	if _, rec := c.begin("k2"); string(rec.body) != "canonical2" {
		t.Fatalf("second copy overwrote canonical response: %q", rec.body)
	}
}

// TestIdemCacheSeedSnapshotRoundtrip: seed respects capacity and snapshot
// exports completed keys oldest-first, skipping in-flight markers.
func TestIdemCacheSeedSnapshotRoundtrip(t *testing.T) {
	c := newIdemCache(2)
	c.seed([]idemEntry{
		{Key: "a", Status: 201, Body: []byte("1")},
		{Key: "", Status: 200, Body: []byte("ignored")},
		{Key: "b", Status: 200, Body: []byte("2")},
		{Key: "c", Status: 201, Body: []byte("3")},
	})
	checkIdemInvariants(t, c)
	if seen, _ := c.begin("a"); seen {
		t.Fatal("oldest key survived seeding past capacity")
	}
	c.begin("pending") // in-flight marker must not leak into the snapshot
	snap := c.snapshot()
	if len(snap) != 2 || snap[0].Key != "b" || snap[1].Key != "c" {
		t.Fatalf("snapshot = %+v", snap)
	}
}
