package trace

import (
	"context"
	"testing"
)

// BenchmarkSpanStartEnd measures the per-span overhead on the hot path. The
// unsampled case is the one that matters for production head-sampling: it
// must stay under a couple hundred nanoseconds so instrumentation can be left
// on unconditionally.
func BenchmarkSpanStartEnd(b *testing.B) {
	b.Run("unsampled", func(b *testing.B) {
		tr := NewTracer(Config{SampleRate: 0})
		ctx := WithTracer(context.Background(), tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, s := Start(ctx, "bench.op")
			s.End()
		}
	})
	b.Run("sampled", func(b *testing.B) {
		tr := NewTracer(Config{SampleRate: 1})
		ctx := WithTracer(context.Background(), tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, s := Start(ctx, "bench.op")
			s.End()
		}
	})
	b.Run("sampled-child", func(b *testing.B) {
		tr := NewTracer(Config{SampleRate: 1})
		ctx := WithTracer(context.Background(), tr)
		ctx, root := Start(ctx, "bench.root")
		defer root.End()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, s := StartChild(ctx, "bench.child")
			s.End()
		}
	})
}
