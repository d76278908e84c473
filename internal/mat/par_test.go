package mat

import (
	"math/rand"
	"runtime"
	"testing"
)

// forceWorkers pins the worker count, GOMAXPROCS, for the rest of the test
// (no test in the repository runs in parallel with another).
func forceWorkers(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestMulParallelBitIdentical checks the determinism contract: the parallel
// kernels partition output rows, and each row is accumulated in exactly the
// serial order, so results must be bit-identical (==, not approximately
// equal) at any worker count.
func TestMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dims := range [][3]int{{64, 48, 64}, {33, 129, 47}, {128, 16, 128}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])

		forceWorkers(t, 1)
		serial := Mul(a, b)
		forceWorkers(t, 4)
		parallel := Mul(a, b)

		if serial.rows != parallel.rows || serial.cols != parallel.cols {
			t.Fatalf("dims %v: shape mismatch", dims)
		}
		for i := range serial.data {
			if serial.data[i] != parallel.data[i] {
				t.Fatalf("dims %v: element %d differs: serial %v parallel %v",
					dims, i, serial.data[i], parallel.data[i])
			}
		}
	}
}

func TestAtAParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][2]int{{80, 64}, {31, 97}, {200, 40}} {
		a := randMat(rng, dims[0], dims[1])

		forceWorkers(t, 1)
		serial := AtA(a)
		forceWorkers(t, 4)
		parallel := AtA(a)

		for i := range serial.data {
			if serial.data[i] != parallel.data[i] {
				t.Fatalf("dims %v: element %d differs: serial %v parallel %v",
					dims, i, serial.data[i], parallel.data[i])
			}
		}
	}
}

func TestAAtParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, dims := range [][2]int{{64, 80}, {97, 31}, {50, 200}} {
		a := randMat(rng, dims[0], dims[1])

		forceWorkers(t, 1)
		serial := AAt(a)
		forceWorkers(t, 4)
		parallel := AAt(a)

		for i := range serial.data {
			if serial.data[i] != parallel.data[i] {
				t.Fatalf("dims %v: element %d differs: serial %v parallel %v",
					dims, i, serial.data[i], parallel.data[i])
			}
		}
	}
}

// TestSmallProductsStaySerial pins the size cutoff: tiny products must not
// pay pool dispatch overhead even when workers are available.
func TestSmallProductsStaySerial(t *testing.T) {
	forceWorkers(t, 8)
	if w, ok := useParallel(4 * 4 * 4); ok {
		t.Fatalf("useParallel(64 flops) = (%d, true), want serial", w)
	}
	if _, ok := useParallel(parMinFlops); !ok {
		t.Fatalf("useParallel(%d flops) chose serial with 8 workers", parMinFlops)
	}
}

// TestSetWorkersClamps: the kernels follow the one setting, GOMAXPROCS, and
// never report fewer than one worker.
func TestSetWorkersClamps(t *testing.T) {
	if w, _ := useParallel(parMinFlops); w < 1 {
		t.Fatalf("useParallel reports %d workers, want >= 1", w)
	}
	forceWorkers(t, 1)
	if w, ok := useParallel(parMinFlops); w != 1 || ok {
		t.Fatalf("useParallel = (%d, %v) at GOMAXPROCS 1, want (1, false)", w, ok)
	}
}

func benchmarkMatMul(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(7))
	const n = 192
	x := randMat(rng, n, n)
	y := randMat(rng, n, n)
	forceWorkers(b, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMatMulSerial(b *testing.B)    { benchmarkMatMul(b, 1) }
func BenchmarkMatMulParallel4(b *testing.B) { benchmarkMatMul(b, 4) }
