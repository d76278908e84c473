package cs

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"crowdwifi/internal/geo"
)

// recoveryMemoCap bounds the group solves one model selection remembers. A
// selection over a 60-sample window makes a few hundred; only the exhaustive
// partition search, the reference in partition_ref_test.go, reaches the cap,
// after which it solves as it always did.
const recoveryMemoCap = 4096

// recoveryMemo remembers the group recoveries of one model selection, so that
// a measurement group met again — by the next refinement round, which moved
// readings in some other group; by K+1, which shares every group far from the
// centre it added; by a different assignment with the same 24 strongest
// readings — is not solved again. The key is the window indices of the rows
// solved, in row order: the window, grid, channel and options are fixed for
// the call, so equal keys mean the same matrix, the same right-hand side and
// the same answer to the bit.
//
// It belongs to one SelectModelContext (or lone EvaluateKContext) call and
// dies with it; the goroutines of that call share it under mu. A key is solved
// once at a time: the first to claim it owns it until it releases it, and a
// goroutine that claims it meanwhile — another speculative K meeting the same
// group — waits for that answer instead of solving it again. An owner that
// fails or is canceled stores nothing and leaves the key to the next claimer;
// a waiter whose own context ends stops waiting. A key counts against the cap
// from its claim. The zero value remembers nothing.
type recoveryMemo struct {
	mu      sync.Mutex
	limit   int
	entries map[string][]geo.Point
	solving map[string]bool // claimed keys not yet released
	// wake is closed, and cleared, by the next release; a claimer that finds
	// its key in solving makes it and waits on it.
	wake chan struct{}
}

func newRecoveryMemo() *recoveryMemo {
	return &recoveryMemo{limit: recoveryMemoCap, entries: make(map[string][]geo.Point)}
}

// memoKey encodes the ordered window indices of a group's rows.
func memoKey(rows []int) string {
	b := make([]byte, 0, 4*len(rows))
	for _, i := range rows {
		b = binary.LittleEndian.AppendUint32(b, uint32(i))
	}
	return string(b)
}

// claim returns a copy of the points stored under key, with hit set. On a miss
// the caller solves the group itself; owned reports that it holds key and
// must release it, and is false when the memo is full. While another
// goroutine owns key, claim waits for it, and returns ctx's error if ctx ends
// first.
func (m *recoveryMemo) claim(ctx context.Context, key string) (pts []geo.Point, hit, owned bool, err error) {
	m.mu.Lock()
	for m.solving[key] {
		if m.wake == nil {
			m.wake = make(chan struct{})
		}
		wake := m.wake
		m.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, false, false, fmt.Errorf("cs: recovery canceled: %w", ctx.Err())
		}
		m.mu.Lock()
	}
	defer m.mu.Unlock()
	if pts, ok := m.entries[key]; ok {
		return append([]geo.Point(nil), pts...), true, false, nil
	}
	if len(m.entries)+len(m.solving) >= m.limit {
		return nil, false, false, nil
	}
	if m.solving == nil {
		m.solving = make(map[string]bool)
	}
	m.solving[key] = true
	return nil, false, true, nil
}

// release ends the caller's claim on key, storing pts if the solve finished
// (solved), and wakes every waiting claimer to look again.
func (m *recoveryMemo) release(key string, pts []geo.Point, solved bool) {
	m.mu.Lock()
	if solved {
		m.entries[key] = append([]geo.Point(nil), pts...)
	}
	delete(m.solving, key)
	if m.wake != nil {
		close(m.wake)
		m.wake = nil
	}
	m.mu.Unlock()
}
