package serve

import (
	"slices"
	"sort"
	"sync"

	"tero/internal/core"
	"tero/internal/obs/trace"
	"tero/internal/par"
)

// group is one {location, game} of the builder's input set: the analyses
// filed under it and the entry the last Build rendered from them.
type group struct {
	key      string // EntryKey of gk; the entry shares the string
	gk       core.GroupKey
	analyses []*core.Analysis
	entry    *Entry // nil before the first render and for an empty distribution
	dirty    bool   // analyses changed since entry was rendered
}

// Builder accumulates producer output and builds immutable Snapshots for
// Index.Swap: the pipeline's PublishAt hook Adds and Replaces *core.Analysis
// values and Build() derives the entries from them.
//
// The builder keeps its input grouped by {location, game} between builds,
// with each group's last entry. Add and Replace mark the groups they touch
// dirty; Build renders dirty groups only and carries every other entry,
// pointer-identical, into the next snapshot. A first Build is the same code
// with every group dirty.
//
// Build is deterministic at every Concurrency setting, and a snapshot is
// byte-identical to the one a fresh builder holding the same analyses would
// build: groups are keyed and sorted canonically, and each entry is a pure
// function of its group's analyses — as a set, since a distribution is
// sorted before anything is derived from it.
type Builder struct {
	// Params are the analysis parameters distributions are derived with
	// (core.Distribution needs them for cluster merging).
	Params core.Params
	// Concurrency is the worker parallelism of Build. 0 means GOMAXPROCS,
	// 1 is fully serial. Output is identical at every setting.
	Concurrency int

	mu       sync.Mutex
	groups   map[core.GroupKey]*group
	order    []*group // every group; sorted by key unless unsorted is set
	unsorted bool     // a group has appeared since order was last sorted
	dirty    []*group // the groups with dirty set

	// The previous Build's product and the settings it was rendered with.
	last       *Snapshot
	lastParams core.Params
}

// NewBuilder returns a builder with the given analysis parameters.
func NewBuilder(p core.Params) *Builder {
	return &Builder{Params: p}
}

// groupKeyOf returns the group an analysis is served under. ok is false for
// what is never served: nil analyses, analyses without streams, and
// unlocated streamers (they cannot be served by location).
func groupKeyOf(a *core.Analysis) (gk core.GroupKey, ok bool) {
	if a == nil || len(a.Streams) == 0 {
		return gk, false
	}
	gk = core.GroupKey{Loc: a.Location(), Game: a.Game}
	return gk, !gk.Loc.IsZero()
}

func (b *Builder) markDirty(g *group) {
	if !g.dirty {
		g.dirty = true
		b.dirty = append(b.dirty, g)
	}
}

// add files a under its group, creating the group on first sight.
func (b *Builder) add(a *core.Analysis) {
	gk, ok := groupKeyOf(a)
	if !ok {
		return
	}
	g := b.groups[gk]
	if g == nil {
		if b.groups == nil {
			b.groups = make(map[core.GroupKey]*group)
		}
		g = &group{key: EntryKey(gk.Loc, gk.Game), gk: gk}
		b.groups[gk] = g
		b.order = append(b.order, g)
		b.unsorted = true
	}
	g.analyses = append(g.analyses, a)
	b.markDirty(g)
}

// Add adds analyses to the builder's input set. Nil analyses, analyses
// without streams and analyses of unlocated streamers are ignored.
func (b *Builder) Add(analyses ...*core.Analysis) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, a := range analyses {
		b.add(a)
	}
}

// Replace substitutes next for old, which is found by pointer in its group.
// When the location moved, old leaves its group and next joins another, and
// both are re-rendered. An old the builder does not hold (Add ignored it)
// makes Replace an Add; a next that Add would ignore makes it a removal.
func (b *Builder) Replace(old, next *core.Analysis) {
	b.mu.Lock()
	defer b.mu.Unlock()
	oldKey, _ := groupKeyOf(old) // a key groupKeyOf refuses has no group: add refused it as well
	if g := b.groups[oldKey]; g != nil {
		if i := slices.Index(g.analyses, old); i >= 0 {
			b.markDirty(g)
			if nextKey, ok := groupKeyOf(next); ok && nextKey == oldKey {
				g.analyses[i] = next
				return
			}
			g.analyses = slices.Delete(g.analyses, i, i+1)
		}
	}
	b.add(next)
}

// Reset drops everything the builder holds, the previous snapshot included:
// the next Build renders whatever is added from here on, from scratch.
func (b *Builder) Reset() {
	b.mu.Lock()
	b.groups, b.order, b.dirty, b.last = nil, nil, nil, nil
	b.unsorted = false
	b.mu.Unlock()
}

// Build renders the groups that changed since the previous Build and
// returns a snapshot of every servable entry in key order. Entries of
// unchanged groups are the previous snapshot's own; when nothing changed at
// all, so is the snapshot. A change of Params between builds dirties every
// group, since every entry depends on them.
func (b *Builder) Build() *Snapshot {
	sp := trace.StartStage("serve.build")
	defer sp.End()

	b.mu.Lock()
	defer b.mu.Unlock()

	if b.last != nil && b.Params != b.lastParams {
		for _, g := range b.order {
			b.markDirty(g)
		}
	}
	if len(b.dirty) == 0 && b.last != nil {
		return b.last
	}
	b.lastParams = b.Params

	// Parallel half: each entry is computed purely from its own group.
	dirty := b.dirty
	b.dirty = nil
	par.For("serve.build", par.Workers(b.Concurrency), len(dirty), func(i int) {
		g := dirty[i]
		g.entry = newEntry(g.key, g.gk, g.analyses, b.Params)
		g.dirty = false
	})

	// Serial merge. A group whose last analysis left goes; the key order
	// only needs sorting again when a group appeared.
	b.order = slices.DeleteFunc(b.order, func(g *group) bool {
		if len(g.analyses) > 0 {
			return false
		}
		delete(b.groups, g.gk)
		return true
	})
	if b.unsorted {
		sort.Slice(b.order, func(i, j int) bool { return b.order[i].key < b.order[j].key })
		b.unsorted = false
	}
	entries := make([]*Entry, 0, len(b.order))
	for _, g := range b.order {
		if g.entry != nil { // an empty distribution is not served
			entries = append(entries, g.entry)
		}
	}
	b.last = newSnapshot(entries)
	return b.last
}
