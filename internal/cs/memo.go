package cs

import (
	"encoding/binary"
	"sync"

	"crowdwifi/internal/geo"
)

// recoveryMemoCap bounds the group solves one model selection remembers. A
// selection over a 60-sample window makes a few hundred; only the exhaustive
// partition search can reach the cap, after which it solves as it always did.
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
// dies with it; the goroutines of that call share it under mu. Two of them
// missing on one key at once both solve and store the same points. The zero
// value remembers nothing.
type recoveryMemo struct {
	mu      sync.Mutex
	limit   int
	entries map[string][]geo.Point
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

// get returns a copy of the points stored under key.
func (m *recoveryMemo) get(key string) ([]geo.Point, bool) {
	m.mu.Lock()
	pts, ok := m.entries[key]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return append([]geo.Point(nil), pts...), true
}

// put stores a finished recovery; a full memo stores nothing.
func (m *recoveryMemo) put(key string, pts []geo.Point) {
	m.mu.Lock()
	if len(m.entries) < m.limit {
		m.entries[key] = append([]geo.Point(nil), pts...)
	}
	m.mu.Unlock()
}
