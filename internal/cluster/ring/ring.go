// Package ring implements the cluster's consistent-hash ring: an immutable
// assignment of road-segment keys to shard members that stays stable across
// membership churn. Each member projects VNodes points onto a 64-bit hash
// circle; a key is owned by the member whose point follows the key's hash
// clockwise. Removing a member therefore remaps only the keys that member
// owned, and adding one steals roughly 1/n of the keyspace in small slices —
// exactly the property WAL-slice rebalance relies on to move the minimum
// amount of state.
//
// The package has no dependencies beyond the standard library so both the
// shard server (ownership filter) and the router (dispatch) can import it.
package ring

import (
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member point count when New is given ≤ 0.
// 64 points per member keeps the ownership imbalance across shards within a
// few percent for realistic member counts while keeping ring construction
// and lookup cheap.
const DefaultVirtualNodes = 64

// fnv-1a 64-bit, inlined so hashing a key allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 is the ring's hash function: FNV-1a (64-bit) followed by a
// splitmix64-style finalizer. Raw FNV-1a avalanches poorly on the short,
// similar strings shards and segments use as ids ("a#0", "seg-12"), which
// clusters ring points and skews ownership; the finalizer spreads them.
func Hash64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

type point struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring. Build one with New; membership
// changes build a new Ring (callers swap the pointer atomically).
type Ring struct {
	vnodes  int
	members []string
	points  []point
}

// New builds a ring over the given members (duplicates and empty ids are
// dropped). vnodes ≤ 0 selects DefaultVirtualNodes. A ring over zero members
// is valid: Owner returns "" for every key.
//
// Every process of a cluster must build the same ring, so the shards and the
// router all pass 0. The parameter stays because the benchmark module calls
// New(ids, 0).
func New(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := map[string]bool{}
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: Hash64(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	// Sort by hash with the member id breaking ties, so point order — and
	// therefore ownership — is independent of the order members were listed.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := Hash64(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0 // wrap: the first point clockwise from the top of the circle
	}
	return r.points[idx].member
}

// Members returns the ring's member ids, sorted. The caller must not mutate
// the returned slice.
func (r *Ring) Members() []string {
	return r.members
}

// VNodes reports the per-member virtual node count.
func (r *Ring) VNodes() int { return r.vnodes }
