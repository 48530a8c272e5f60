//go:build go1.24

package nkdv

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"weak"
)

// TestScatterPinsNothing: once scatterOrdered returns, nothing holds the
// scratches it built (each a Dijkstra engine sized to the graph in
// Forward), so one GC frees them. A sync.Pool would keep them until the
// second GC after its last Put.
func TestScatterPinsNothing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var made []weak.Pointer[[]float64]
		newScratch := func() *[]float64 {
			s := make([]float64, 1<<16)
			mu.Lock()
			made = append(made, weak.Make(&s))
			mu.Unlock()
			return &s
		}
		values := make([]float64, 8)
		err := scatterOrdered(context.Background(), 1000, workers, values, newScratch,
			func(sc *[]float64, i int, out *sink) {
				(*sc)[i]++
				out.run(int32(i%8), 1)[0]++
			})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		for k, p := range made {
			if p.Value() != nil {
				t.Errorf("workers=%d: scratch %d of %d outlived a GC after scatterOrdered returned", workers, k, len(made))
			}
		}
	}
}
