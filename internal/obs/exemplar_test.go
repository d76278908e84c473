package obs

import (
	"sync"
	"testing"
)

func TestExemplarPerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ex_seconds", "test", []float64{0.1, 1, 10})

	h.ObserveWithExemplar(0.05, "trace-fast")
	h.ObserveWithExemplar(0.5, "trace-mid")
	h.ObserveWithExemplar(5, "trace-slow")
	h.Observe(100) // no exemplar: plain observations never overwrite one

	ex := h.BucketExemplars()
	if got := ex["0.1"].TraceID; got != "trace-fast" {
		t.Fatalf(`bucket 0.1 exemplar = %q, want "trace-fast"`, got)
	}
	if got := ex["1"].TraceID; got != "trace-mid" {
		t.Fatalf(`bucket 1 exemplar = %q, want "trace-mid"`, got)
	}
	if got := ex["10"]; got.TraceID != "trace-slow" || got.Value != 5 {
		t.Fatalf(`bucket 10 exemplar = %+v, want trace-slow/5`, got)
	}
	if _, ok := ex["+Inf"]; ok {
		t.Fatal("+Inf bucket must have no exemplar: its only observation carried no trace")
	}

	// A later observation in the same bucket replaces the exemplar.
	h.ObserveWithExemplar(7, "trace-slower")
	if got := h.BucketExemplars()["10"].TraceID; got != "trace-slower" {
		t.Fatalf("exemplar not replaced: %q", got)
	}

	// Counts are unaffected by exemplar bookkeeping.
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
}

func TestExemplarEmptyTraceIDIgnored(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ex_empty_seconds", "test", nil)
	h.ObserveWithExemplar(0.5, "")
	if len(h.BucketExemplars()) != 0 {
		t.Fatal("empty trace id must not record an exemplar")
	}
	var nilH *Histogram
	nilH.ObserveWithExemplar(1, "x") // must not panic
	if nilH.BucketExemplars() != nil {
		t.Fatal("nil histogram exemplar reads must be empty")
	}
}

func TestRegistryExemplars(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("ex_reg_seconds", "test", []float64{1}, L("route", "/a"))
	b := r.WindowedHistogram("ex_reg_seconds", "test", []float64{1}, 0, 0, L("route", "/b"))
	a.ObserveWithExemplar(0.5, "trace-a")
	b.ObserveWithExemplar(2, "trace-b")

	all := r.Exemplars()
	if got := all[`ex_reg_seconds{route="/a"}`]["1"].TraceID; got != "trace-a" {
		t.Fatalf("series /a exemplar = %q, want trace-a (all: %v)", got, all)
	}
	if got := all[`ex_reg_seconds{route="/b"}`]["+Inf"].TraceID; got != "trace-b" {
		t.Fatalf("series /b exemplar = %q, want trace-b (all: %v)", got, all)
	}
	if r2 := NewRegistry(); len(r2.Exemplars()) != 0 {
		t.Fatal("fresh registry must expose no exemplars")
	}
}

func TestExemplarConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ex_conc_seconds", "test", []float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveWithExemplar(0.5, "t")
				h.BucketExemplars()
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}
