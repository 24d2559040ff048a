package serve

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tero/internal/core"
	"tero/internal/geo"
	"tero/internal/obs"
	"tero/internal/obs/trace"
	"tero/internal/sketch"
)

// Streaming-index defaults: a ring of 48 one-hour windows (two days of
// virtual time) per {location, game}, and an anomaly flag when a window's
// distribution sits more than 25 ms of Wasserstein-1 distance from the
// rest of the ring with at least 8 readings on both sides.
const (
	DefaultWindowSec          = 3600
	DefaultWindows            = 48
	DefaultAnomalyThresholdMs = 25
	DefaultAnomalyMinN        = 8
)

// Publish-path metrics. The delta/full counters are the observable split
// between the two publish strategies; reused/rebuilt expose how much of
// each delta snapshot was pointer-shared with the previous one.
var (
	mDeltaPublishes = obs.C("serve_delta_publishes_total")
	mFullRebuilds   = obs.C("serve_full_rebuilds_total")
	mEntriesReused  = obs.C("serve_entries_reused_total")
	mEntriesRebuilt = obs.C("serve_entries_rebuilt_total")
	mPublishSkipped = obs.C("serve_publish_skipped_total")
	mAnomalyWindows = obs.C("serve_anomaly_windows_total")
	gAnomalyActive  = obs.G("serve_anomaly_active")
)

// MarkPublishSkipped counts a refresh tick that skipped the rebuild (and
// the swap) because nothing new arrived since the last publish.
func MarkPublishSkipped() { mPublishSkipped.Inc() }

// Builder accumulates producer output and builds immutable Snapshots for
// Index.Swap. It has two modes sharing one type:
//
//   - Batch (the original): the pipeline's Publish hook Adds *core.Analysis
//     values and Build() derives every entry from scratch.
//   - Streaming (EnableStreaming / ObserveReading): each located OCR
//     reading lands in a per-{location, game} ring of windowed sketches in
//     O(sketch); BuildDelta() re-renders only the groups whose state
//     changed and reuses every clean entry pointer-identical from the
//     previous snapshot.
//
// Both modes are deterministic at every Concurrency setting: groups are
// keyed and sorted canonically and each entry is a pure function of its
// group state. In streaming mode that purity goes further: group state is a
// pure function of the reading multiset (see package sketch), so a
// from-scratch Build() over the same readings — in any insertion order —
// produces snapshots byte-identical to the incremental BuildDelta() path.
type Builder struct {
	// Params are the analysis parameters distributions are derived with
	// (core.Distribution needs them for cluster merging; batch mode only).
	Params core.Params
	// MinPoints is the minimum distribution size for a {location, game}
	// to be served (default 1: serve everything non-empty).
	MinPoints int
	// Concurrency is the worker parallelism of Build. 0 means GOMAXPROCS,
	// 1 is fully serial. Output is identical at every setting.
	Concurrency int
	// HistLoMs/HistHiMs/HistBins override the fixed histogram layout
	// (defaults 0..400 ms in 40 bins).
	HistLoMs, HistHiMs float64
	HistBins           int

	// Streaming-mode knobs (defaults applied when <= 0).
	WindowSec          int64   // window width, virtual seconds
	Windows            int     // ring size per group
	AnomalyThresholdMs float64 // Wasserstein-1 flag threshold
	AnomalyMinN        int     // min readings on both sides of the test

	mu       sync.Mutex
	analyses []*core.Analysis

	streaming bool
	groups    map[string]*streamGroup
	prevSnap  *Snapshot
}

// streamGroup is the mutable per-{location, game} state of the streaming
// index: the window ring, the distinct contributing streamers, and the
// cached build products that let clean groups skip re-rendering.
type streamGroup struct {
	loc       geo.Location
	game      string
	win       *sketch.Windowed
	streamers map[string]struct{}

	dirty bool
	built bool
	entry *Entry // nil after build means "below MinPoints"
	anoms []Anomaly
}

// NewBuilder returns a builder with the given analysis parameters.
func NewBuilder(p core.Params) *Builder {
	return &Builder{Params: p, MinPoints: 1}
}

// EnableStreaming switches the builder to streaming mode (idempotent).
// ObserveReading enables it implicitly; this exists so callers can flip
// the mode before any reading arrives.
func (b *Builder) EnableStreaming() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.enableStreamingLocked()
}

func (b *Builder) enableStreamingLocked() {
	if !b.streaming {
		b.streaming = true
		b.groups = make(map[string]*streamGroup)
	}
}

func (b *Builder) windowSec() int64 {
	if b.WindowSec > 0 {
		return b.WindowSec
	}
	return DefaultWindowSec
}

func (b *Builder) windowCount() int {
	if b.Windows > 0 {
		return b.Windows
	}
	return DefaultWindows
}

// ObserveReading feeds one located OCR reading into the streaming index:
// O(sketch) — a map hit, a set insert and one bucket increment. Returns
// false when the reading cannot enter the index (unlocatable zero location,
// or older than the group's retention horizon). Safe for concurrent use.
func (b *Builder) ObserveReading(streamer string, loc geo.Location, game string, atUnix int64, ms float64) bool {
	if loc.IsZero() {
		return false // unlocated streamers cannot be served by location
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.enableStreamingLocked()
	key := EntryKey(loc, game)
	g := b.groups[key]
	if g == nil {
		g = &streamGroup{
			loc:       loc,
			game:      game,
			win:       sketch.NewWindowed(b.windowSec(), b.windowCount()),
			streamers: make(map[string]struct{}),
		}
		b.groups[key] = g
	}
	// The streamer set must grow even when the reading itself is too old to
	// keep, or the set would depend on insertion order and break the
	// full-vs-incremental byte-identity guarantee.
	if _, ok := g.streamers[streamer]; !ok {
		g.streamers[streamer] = struct{}{}
		g.dirty = true
	}
	if !g.win.Add(atUnix, ms) {
		return false
	}
	g.dirty = true
	return true
}

// Add appends analyses to the builder's input set (batch mode). Nil
// analyses and analyses without streams are ignored.
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

// Reset drops all accumulated state — batch analyses and the streaming
// groups — for a from-scratch republish. The streaming publish path never
// resets; this is the batch-mode PublishAt contract plus a test hook.
func (b *Builder) Reset() {
	b.mu.Lock()
	b.analyses = nil
	if b.streaming {
		b.groups = make(map[string]*streamGroup)
		b.prevSnap = nil
	}
	b.mu.Unlock()
}

// Len returns the number of accumulated analyses (batch mode).
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

// DeltaStats summarizes what one BuildDelta did.
type DeltaStats struct {
	Entries      int // entries in the snapshot
	Rebuilt      int // groups re-rendered (dirty or first build)
	Reused       int // groups reused pointer-identical
	Anomalies    int // flagged windows in the snapshot
	NewAnomalies int // flagged windows not present in the previous build
}

// Build computes a full snapshot from scratch. In batch mode that derives
// every entry from the accumulated analyses; in streaming mode it
// re-renders every group from its ring state, bypassing the delta cache —
// the reference output the incremental path is pinned byte-identical to.
func (b *Builder) Build() *Snapshot {
	sp := trace.StartStage("serve.build")
	defer sp.End()
	mFullRebuilds.Inc()

	b.mu.Lock()
	if b.streaming {
		defer b.mu.Unlock()
		snap, _ := b.buildStreamLocked(false)
		return snap
	}
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
	hc := histConfig{lo: b.HistLoMs, hi: b.HistHiMs, bins: b.HistBins}.orDefault()

	// Parallel half: each entry is computed purely from its own group.
	results := make([]*Entry, len(tasks))
	runTasks(len(tasks), b.workers(), func(i int) {
		t := tasks[i]
		results[i] = newEntry(t.gk.Loc, t.gk.Game, groups[t.gk], b.Params, minPoints, hc)
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

// BuildDelta computes the next snapshot incrementally: only groups whose
// sketch state changed since the previous BuildDelta re-render their
// bodies, ETags and anomaly windows; every clean group's entry is reused
// pointer-identical. When nothing changed at all, the previous snapshot
// itself is returned. Byte-for-byte equal to Build() over the same state.
func (b *Builder) BuildDelta() (*Snapshot, DeltaStats) {
	sp := trace.StartStage("serve.build_delta")
	defer sp.End()

	b.mu.Lock()
	defer b.mu.Unlock()
	b.enableStreamingLocked()
	snap, st := b.buildStreamLocked(true)
	mDeltaPublishes.Inc()
	mEntriesRebuilt.Add(int64(st.Rebuilt))
	mEntriesReused.Add(int64(st.Reused))
	return snap, st
}

// buildStreamLocked renders a snapshot from the streaming groups. With
// useCache it consults and updates the per-group build cache (the delta
// path); without, it recomputes everything and leaves the cache untouched
// (the from-scratch reference path). b.mu must be held: workers read group
// rings concurrently, so no ObserveReading may run during the build.
func (b *Builder) buildStreamLocked(useCache bool) (*Snapshot, DeltaStats) {
	keys := make([]string, 0, len(b.groups))
	for k := range b.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	minPoints := b.MinPoints
	if minPoints < 1 {
		minPoints = 1
	}
	hc := histConfig{lo: b.HistLoMs, hi: b.HistHiMs, bins: b.HistBins}.orDefault()
	thr := b.AnomalyThresholdMs
	if thr <= 0 {
		thr = DefaultAnomalyThresholdMs
	}
	minN := b.AnomalyMinN
	if minN <= 0 {
		minN = DefaultAnomalyMinN
	}

	var st DeltaStats
	type result struct {
		entry *Entry
		anoms []Anomaly
	}
	results := make([]result, len(keys))
	work := make([]int, 0, len(keys))
	for i, k := range keys {
		g := b.groups[k]
		if useCache && g.built && !g.dirty {
			results[i] = result{entry: g.entry, anoms: g.anoms}
			st.Reused++
			continue
		}
		work = append(work, i)
	}
	if useCache && len(work) == 0 && b.prevSnap != nil {
		// Nothing moved: the previous snapshot is still exact.
		st.Entries = len(b.prevSnap.Entries)
		st.Anomalies = len(b.prevSnap.Catalog.Anomalies)
		return b.prevSnap, st
	}

	runTasks(len(work), b.workers(), func(wi int) {
		i := work[wi]
		g := b.groups[keys[i]]
		results[i] = result{
			entry: newStreamEntry(g.loc, g.game, g.win, len(g.streamers), minPoints, hc),
			anoms: detectAnomalies(g.loc, g.game, g.win, thr, minN),
		}
	})
	st.Rebuilt = len(work)

	entries := make([]*Entry, 0, len(keys))
	var anoms []Anomaly
	for i, k := range keys {
		r := results[i]
		if useCache {
			g := b.groups[k]
			if !g.built || g.dirty {
				for _, a := range r.anoms {
					if !hasAnomalyWindow(g.anoms, a.WindowStartUnix) {
						mAnomalyWindows.Inc()
						st.NewAnomalies++
					}
				}
				g.entry, g.anoms = r.entry, r.anoms
				g.built, g.dirty = true, false
			}
		}
		if r.entry != nil {
			entries = append(entries, r.entry)
		}
		anoms = append(anoms, r.anoms...)
	}
	st.Entries = len(entries)
	st.Anomalies = len(anoms)
	snap := &Snapshot{Entries: entries, Catalog: newCatalogWith(entries, anoms)}
	if useCache {
		b.prevSnap = snap
	}
	return snap, st
}
