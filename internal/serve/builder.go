package serve

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tero/internal/core"
	"tero/internal/obs"
	"tero/internal/obs/trace"
)

var mPublishSkipped = obs.C("serve_publish_skipped_total")

// MarkPublishSkipped counts a refresh tick that skipped the rebuild (and
// the swap) because nothing new arrived since the last publish.
func MarkPublishSkipped() { mPublishSkipped.Inc() }

// Builder accumulates producer output and builds immutable Snapshots for
// Index.Swap: the pipeline's PublishAt hook Adds *core.Analysis values and
// Build() derives every entry from them.
//
// Build is deterministic at every Concurrency setting: groups are keyed and
// sorted canonically and each entry is a pure function of its group's
// analyses.
type Builder struct {
	// Params are the analysis parameters distributions are derived with
	// (core.Distribution needs them for cluster merging).
	Params core.Params
	// MinPoints is the minimum distribution size for a {location, game}
	// to be served (default 1: serve everything non-empty).
	MinPoints int
	// Concurrency is the worker parallelism of Build. 0 means GOMAXPROCS,
	// 1 is fully serial. Output is identical at every setting.
	Concurrency int

	mu       sync.Mutex
	analyses []*core.Analysis
}

// NewBuilder returns a builder with the given analysis parameters.
func NewBuilder(p core.Params) *Builder {
	return &Builder{Params: p, MinPoints: 1}
}

// Add appends analyses to the builder's input set. Nil analyses and
// analyses without streams are ignored.
func (b *Builder) Add(analyses ...*core.Analysis) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, a := range analyses {
		if a == nil || len(a.Streams) == 0 {
			continue
		}
		b.analyses = append(b.analyses, a)
	}
}

// Reset drops the accumulated analyses for a from-scratch republish
// (PublishAt resets before every Add).
func (b *Builder) Reset() {
	b.mu.Lock()
	b.analyses = nil
	b.mu.Unlock()
}

// Len returns the number of accumulated analyses.
func (b *Builder) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.analyses)
}

// workers resolves the effective Build parallelism.
func (b *Builder) workers() int {
	if b.Concurrency > 0 {
		return b.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

// runTasks executes fn(0..n-1) on up to `workers` goroutines via an atomic
// work-stealing counter. Caller observes completion; result placement is
// indexed, so output is deterministic regardless of scheduling.
func runTasks(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Build computes a snapshot from scratch: every entry is derived from the
// accumulated analyses.
func (b *Builder) Build() *Snapshot {
	sp := trace.StartStage("serve.build")
	defer sp.End()

	b.mu.Lock()
	analyses := append([]*core.Analysis(nil), b.analyses...)
	b.mu.Unlock()

	groups := core.GroupByLocation(analyses)
	type task struct {
		key string
		gk  core.GroupKey
	}
	tasks := make([]task, 0, len(groups))
	for gk := range groups {
		if gk.Loc.IsZero() {
			continue // unlocated streamers cannot be served by location
		}
		tasks = append(tasks, task{key: EntryKey(gk.Loc, gk.Game), gk: gk})
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].key < tasks[j].key })

	minPoints := b.MinPoints
	if minPoints < 1 {
		minPoints = 1
	}

	// Parallel half: each entry is computed purely from its own group.
	results := make([]*Entry, len(tasks))
	runTasks(len(tasks), b.workers(), func(i int) {
		t := tasks[i]
		results[i] = newEntry(t.gk.Loc, t.gk.Game, groups[t.gk], b.Params, minPoints)
	})

	// Serial merge in key order; groups below MinPoints dropped.
	entries := make([]*Entry, 0, len(results))
	for _, e := range results {
		if e != nil {
			entries = append(entries, e)
		}
	}
	return &Snapshot{Entries: entries, Catalog: newCatalog(entries)}
}
