package par

import (
	"strings"
	"testing"

	"tero/internal/obs"
)

// TestForEachPanicRecovery: a panic inside a worker does not kill the
// process from an anonymous goroutine — every item
// still runs, the panic is counted, and the caller sees a panic naming the
// stage and the offending item.
func TestForEachPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 8} {
		obs.Reset()
		prevW := obs.SetLogOutput(nil) // silence the expected error log
		ran := make([]bool, 64)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "stage boom") ||
					!strings.Contains(msg, "item 7") ||
					!strings.Contains(msg, "kaboom") {
					t.Fatalf("workers=%d: panic lacks stage/item context: %v", workers, r)
				}
			}()
			For("boom", workers, len(ran), func(i int) {
				ran[i] = true
				if i == 7 {
					panic("kaboom")
				}
			})
		}()
		obs.SetLogOutput(prevW)
		for i, r := range ran {
			if !r {
				t.Fatalf("workers=%d: item %d skipped after panic", workers, i)
			}
		}
		c := obs.C(obs.Lbl("pipeline_worker_panics_total", "stage", "boom"))
		if c.Value() != 1 {
			t.Fatalf("workers=%d: panic counter = %d, want 1", workers, c.Value())
		}
	}
}

// TestForEachPanicLowestIndexWins pins determinism of the re-panic when
// several items blow up: the lowest index is reported at any concurrency.
func TestForEachPanicLowestIndexWins(t *testing.T) {
	prevW := obs.SetLogOutput(nil)
	defer obs.SetLogOutput(prevW)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "item 3") {
			t.Fatalf("expected lowest item 3 reported, got: %v", r)
		}
	}()
	For("multi", 8, 32, func(i int) {
		if i >= 3 {
			panic(i)
		}
	})
}
