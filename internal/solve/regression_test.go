package solve

import (
	"context"
	"errors"
	"testing"
)

// TestSolversHonorCanceledContext checks BPDN aborts with a wrapped context
// error instead of running MaxIter to completion.
func TestSolversHonorCanceledContext(t *testing.T) {
	a, _, b := sparseProblem(3, 60, 120, 5, 0.01)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{MaxIter: 100000, Tol: 0, Ctx: ctx}

	if _, err := BPDN(a, b, 0.01, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}
