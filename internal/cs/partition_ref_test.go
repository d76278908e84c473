package cs

import (
	"context"
	"fmt"
	"testing"

	"crowdwifi/internal/grid"
	"crowdwifi/internal/radio"
)

// Proposition 2's combination search enumerates every partition of the
// window into K groups; it is Ω(M^M), so EvaluateK searches greedily and
// the exact search lives on here as the reference the greedy one, the
// golden digest and the recovery memo's cap are tested against.

// maxPartitions caps the partitions evaluateKExhaustive enumerates.
const maxPartitions = 20000

// evaluateKExhaustive is EvaluateK by exact search: it enumerates the set
// partitions of the window into exactly k blocks (restricted growth strings)
// and keeps the best BIC. This realizes the literal combination search of
// Proposition 2 for small windows (at most ~10 measurements; guarded by
// maxPartitions). Like EvaluateK it builds the window's sensing matrix and
// fills in the channel, and a memo when o carries none.
func evaluateKExhaustive(g *grid.Grid, ch radio.Channel, window []radio.Measurement, k int, o HypothesisOptions) (*Hypothesis, error) {
	if len(window) == 0 {
		return nil, ErrNoMeasurements
	}
	if k <= 0 || k > len(window) {
		return nil, ErrTooManyGroups
	}
	o.sensing = BuildSensingMatrix(g, ch, window)
	if o.GMM.Channel == (radio.Channel{}) {
		o.GMM.Channel = ch
	}
	if o.memo == nil {
		o.memo = newRecoveryMemo()
	}
	var best *Hypothesis
	count := 0
	err := forEachPartition(len(window), k, func(assign []int) bool {
		count++
		if count > maxPartitions {
			return false
		}
		aps, err := recoverGroups(context.Background(), g, window, assign, k, o)
		if err != nil || len(aps) == 0 {
			return true
		}
		ll := o.GMM.LogLikelihood(window, aps)
		bic := radio.BIC(ll, len(aps), len(window))
		if best == nil || bic > best.BIC {
			cp := make([]int, len(assign))
			copy(cp, assign)
			best = &Hypothesis{K: k, APs: aps, Assign: cp, LogLik: ll, BIC: bic}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("cs: exhaustive search over K=%d found no valid hypothesis", k)
	}
	return best, nil
}

// forEachPartition enumerates all partitions of n items into exactly k
// non-empty blocks, invoking fn with the assignment vector (block index per
// item). Enumeration stops early when fn returns false. The assignment slice
// is reused between calls; copy it to retain it.
func forEachPartition(n, k int, fn func(assign []int) bool) error {
	if n <= 0 || k <= 0 || k > n {
		return fmt.Errorf("cs: invalid partition request n=%d k=%d", n, k)
	}
	// Restricted growth strings: a[i] ≤ max(a[0..i-1]) + 1, filtered to
	// exactly k blocks.
	assign := make([]int, n)
	var rec func(i, maxUsed int) bool
	rec = func(i, maxUsed int) bool {
		if i == n {
			if maxUsed+1 != k {
				return true
			}
			return fn(assign)
		}
		limit := maxUsed + 1
		if limit > k-1 {
			limit = k - 1
		}
		// Prune: remaining items must be able to open the missing blocks.
		remaining := n - i
		missing := k - (maxUsed + 1)
		if missing > remaining {
			return true
		}
		for b := 0; b <= limit; b++ {
			assign[i] = b
			nm := maxUsed
			if b > maxUsed {
				nm = b
			}
			if !rec(i+1, nm) {
				return false
			}
		}
		return true
	}
	rec(0, -1)
	return nil
}

func TestForEachPartitionCountsBell(t *testing.T) {
	// Stirling numbers of the second kind: S(4,2) = 7, S(5,3) = 25.
	cases := []struct{ n, k, want int }{
		{4, 1, 1},
		{4, 2, 7},
		{4, 4, 1},
		{5, 3, 25},
	}
	for _, c := range cases {
		count := 0
		if err := forEachPartition(c.n, c.k, func([]int) bool {
			count++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if count != c.want {
			t.Errorf("S(%d,%d): got %d partitions, want %d", c.n, c.k, count, c.want)
		}
	}
}

func TestForEachPartitionValidAssignments(t *testing.T) {
	err := forEachPartition(5, 2, func(assign []int) bool {
		blocks := map[int]bool{}
		for _, b := range assign {
			if b < 0 || b >= 2 {
				t.Fatalf("block index %d out of range", b)
			}
			blocks[b] = true
		}
		if len(blocks) != 2 {
			t.Fatalf("partition uses %d blocks, want exactly 2: %v", len(blocks), assign)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachPartitionEarlyStop(t *testing.T) {
	count := 0
	if err := forEachPartition(6, 3, func([]int) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop after %d calls, want 5", count)
	}
}

func TestForEachPartitionInvalidArgs(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {3, 0}, {2, 3}} {
		if err := forEachPartition(c[0], c[1], func([]int) bool { return true }); err == nil {
			t.Errorf("forEachPartition(%d,%d) should error", c[0], c[1])
		}
	}
}
