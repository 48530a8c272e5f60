package geostat

// Observability-overhead benchmark backing the acceptance criterion in
// DESIGN.md (Observability): a fully traced KDV request must cost within a
// few percent of the untraced call. Uninstrumented callers hit the nil-span
// fast path (obs.Trace with no active root returns a nil *Span), so the
// "plain" variant here is what every library user pays; "traced" is what
// geostatd pays per request when it opens a root span.
//
//	go test -run NONE -bench BenchmarkKDVObsOverhead -benchmem .

import (
	"context"
	"testing"

	"geostat/internal/obs"
)

func BenchmarkKDVObsOverhead(b *testing.B) {
	data := benchData(8000)
	grid := NewPixelGrid(benchBox, 64, 64)
	opt := KDVOptions{Kernel: MustKernel(Quartic, 6), Method: KDVGridCutoff, Grid: grid}

	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := KDVDatasetCtx(context.Background(), data, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, root := obs.NewTrace(context.Background(), "request")
			if _, err := KDVDatasetCtx(ctx, data, opt); err != nil {
				b.Fatal(err)
			}
			root.End()
			if root.Tree() == nil {
				b.Fatal("trace recorded nothing")
			}
		}
	})
}
