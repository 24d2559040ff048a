// Package par is the module's one parallel-for. A stage fans index-disjoint
// work out over a pool of goroutines, the caller among them, and a panic in
// any item comes back on the caller, named, after every item has run.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tero/internal/obs"
)

var log = obs.L("par")

// Workers resolves a concurrency setting: n when positive, GOMAXPROCS
// otherwise.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for i in [0, n) on a pool of the given number of workers
// and blocks until all calls return. The calling goroutine is one of the
// workers, so with one worker (or n == 1) it is a plain loop on it. fn must
// confine itself to index-disjoint writes (or internally synchronized
// stores); ordered side effects belong in the caller's merge step.
//
// A panic inside fn does not kill the process from an anonymous worker
// goroutine: it is recovered, counted (`pipeline_worker_panics_total`),
// logged with its item index, and — after every remaining item has run, so
// behavior matches at all concurrency levels — re-panicked on the calling
// goroutine with the stage name attached. When several items panic, the one
// with the lowest index wins, deterministically.
func For(stage string, workers, n int, fn func(i int)) {
	var panicMu sync.Mutex
	panicIdx := -1
	var panicVal any
	run := func(i int) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			obs.C(obs.Lbl("pipeline_worker_panics_total", "stage", stage)).Inc()
			log.Error("worker panic", "stage", stage, "item", i, "panic", fmt.Sprint(r))
			panicMu.Lock()
			if panicIdx < 0 || i < panicIdx {
				panicIdx, panicVal = i, r
			}
			panicMu.Unlock()
		}()
		fn(i)
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			run(i)
		}
	}
	var wg sync.WaitGroup
	w := min(workers, n)
	wg.Add(max(w-1, 0))
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is one of the w workers
	wg.Wait()
	if panicIdx >= 0 {
		panic(fmt.Sprintf("par: stage %s: worker panicked on item %d: %v",
			stage, panicIdx, panicVal))
	}
}
