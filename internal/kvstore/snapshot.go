package kvstore

import (
	"bufio"
	"errors"
	"os"
)

// snapshotChunk caps the arity of one RPUSH in a snapshot so frames stay
// within readCommand's argument limit.
const snapshotChunk = 512

// snapshotCmdsLocked encodes the live store contents as a deterministic
// RESP command stream: sorted SETs, then sorted HSETs (fields sorted), then
// sorted RPUSHes. Replaying it through applyLogged reconstructs the exact
// state, so the same encoding serves both log compaction and replica
// full-sync. Caller holds at least RLock.
func (s *Store) snapshotCmdsLocked() [][]string {
	var cmds [][]string
	for _, k := range sortedStrKeys(s.strings) {
		cmds = append(cmds, []string{"SET", k, s.strings[k]})
	}
	for _, k := range sortedStrKeys(s.hashes) {
		h := s.hashes[k]
		for _, f := range sortedStrKeys(h) {
			cmds = append(cmds, []string{"HSET", k, f, h[f]})
		}
	}
	for _, k := range sortedStrKeys(s.lists) {
		vals := s.lists[k].vals()
		for i := 0; i < len(vals); i += snapshotChunk {
			end := i + snapshotChunk
			if end > len(vals) {
				end = len(vals)
			}
			cmds = append(cmds, append([]string{"RPUSH", k}, vals[i:end]...))
		}
	}
	return cmds
}

// Compact rewrites the log as a fresh snapshot + empty AOF generation.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

var errNoPersistence = errors.New("kvstore: no persistence attached")

// compactLocked advances the log to generation g+1: write aof-(g+1) empty,
// write snap-(g+1) via tmp+fsync+rename (the rename is the commit point —
// recovery prefers the newest committed snapshot), switch appends over,
// then drop generation g. A crash anywhere in between leaves either the
// old generation intact or the new one committed. Caller holds Lock, which
// also holds off concurrent appends for the duration; store sizes here are
// coordination state, not bulk data, so the pause is microseconds to
// low milliseconds.
func (s *Store) compactLocked() error {
	a := s.aof
	if a == nil {
		return errNoPersistence
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	next := a.gen + 1

	nf, err := os.OpenFile(aofPath(a.dir, next), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}

	cmds := s.snapshotCmdsLocked()
	if err := writeSnapshotFile(a.dir, next, cmds); err != nil {
		nf.Close()
		os.Remove(aofPath(a.dir, next)) //nolint:errcheck
		return err
	}

	// Committed: retire the old generation's writer and files.
	if err := a.syncLocked(); err != nil && a.err == nil {
		a.err = err
	}
	a.f.Close()                       //nolint:errcheck // synced above
	os.Remove(aofPath(a.dir, a.gen))  //nolint:errcheck
	os.Remove(snapPath(a.dir, a.gen)) //nolint:errcheck
	a.gen = next
	a.f = nf
	a.w = bufio.NewWriter(nf)
	a.size = 0
	a.dirty = false
	a.appends = 0
	mSnapshots.Inc()
	mSnapCmds.Add(int64(len(cmds)))
	mAofSize.Set(0)
	return a.err
}

// writeSnapshotFile writes the command stream to snap-<gen>.resp with
// tmp-file + fsync + rename commit semantics, then fsyncs the directory so
// the rename itself is durable.
func writeSnapshotFile(dir string, gen int, cmds [][]string) error {
	tmp := snapPath(dir, gen) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, c := range cmds {
		if err := writeCmd(w, c); err != nil {
			f.Close()
			os.Remove(tmp) //nolint:errcheck
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := os.Rename(tmp, snapPath(dir, gen)); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory (best-effort; not all filesystems support it).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck
	d.Close()
}
