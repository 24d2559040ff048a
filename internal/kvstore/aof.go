package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tero/internal/obs"
)

var kvlog = obs.L("kvstore")

// Durability metrics: the AOF/snapshot/replication counters the chaos-store
// experiment and scripts/check.sh assert on after a crash.
var (
	mAofAppends   = obs.C("kvstore_aof_appends_total")
	mAofBytes     = obs.C("kvstore_aof_bytes_total")
	mAofFsyncs    = obs.C("kvstore_aof_fsyncs_total")
	mAofReplayed  = obs.C("kvstore_aof_replayed_total")
	mAofTruncated = obs.C("kvstore_aof_truncated_bytes_total")
	mAofSize      = obs.G("kvstore_aof_size_bytes")
	mSnapshots    = obs.C("kvstore_snapshots_total")
	mSnapCmds     = obs.C("kvstore_snapshot_cmds_total")
	mReplFullSync = obs.C("kvstore_repl_full_syncs_total")
	mReplStreamed = obs.C("kvstore_repl_streamed_total")
	mReplApplied  = obs.C("kvstore_repl_applied_total")
	mReplDropped  = obs.C("kvstore_repl_dropped_replicas_total")
	mReplReplicas = obs.G("kvstore_repl_replicas")
	mReplPending  = obs.G("kvstore_repl_feed_pending")
	mRedials      = obs.C("kvstore_client_redials_total")
)

// Fsync policies for the append-only file.
const (
	// FsyncAlways syncs after every appended command: zero loss on crash.
	FsyncAlways = "always"
	// FsyncInterval flushes+syncs on a background ticker (default 100ms):
	// bounded loss, near-memory write latency.
	FsyncInterval = "interval"
	// FsyncNever leaves syncing to the OS page cache.
	FsyncNever = "never"
)

// PersistOptions configures Open.
type PersistOptions struct {
	// Fsync is one of FsyncAlways, FsyncInterval, FsyncNever
	// (default FsyncInterval).
	Fsync string
	// FsyncEvery is the interval for FsyncInterval (default 100ms).
	FsyncEvery time.Duration
	// CompactEvery rewrites the log as a snapshot after this many appended
	// commands (0 = compact only on explicit Compact calls).
	CompactEvery int
}

func (o *PersistOptions) fill() error {
	switch o.Fsync {
	case "":
		o.Fsync = FsyncInterval
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return fmt.Errorf("kvstore: unknown fsync policy %q", o.Fsync)
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	return nil
}

// Log file layout: snap-<gen>.resp + aof-<gen>.resp pairs. A snapshot is a
// deterministic RESP command stream reconstructing the store; the AOF of the
// same generation holds everything appended since. Compaction writes the
// next generation's snapshot (rename is the commit point) and switches
// appends to its AOF, so a crash at any instant leaves at least one
// complete generation on disk.
func snapPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%d.resp", gen))
}

func aofPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("aof-%d.resp", gen))
}

// parseGen extracts the generation from a snap-/aof- file name.
func parseGen(name, prefix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".resp") {
		return 0, false
	}
	g, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".resp"))
	if err != nil || g < 1 {
		return 0, false
	}
	return g, true
}

// aofWriter appends RESP-framed commands to the current generation's log
// file. Appends arrive under the store's write lock; mu additionally
// serializes them against the background fsync ticker and Close.
type aofWriter struct {
	dir          string
	opt          PersistOptions
	compactEvery int
	appends      int // since the last compaction

	mu    sync.Mutex
	gen   int
	f     *os.File
	w     *bufio.Writer
	size  int64
	dirty bool
	err   error // first write/sync error, sticky

	stop chan struct{}
	done chan struct{}
}

// append marshals one command onto the log. Called with the store lock
// held, so commands land in exactly the order they were applied.
func (a *aofWriter) append(args []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := respArrayLen(args)
	err := writeCmd(a.w, args)
	a.size += int64(n)
	a.appends++
	a.dirty = true
	if err == nil && a.opt.Fsync == FsyncAlways {
		err = a.syncLocked()
	}
	if err != nil && a.err == nil {
		a.err = err
	}
	mAofAppends.Inc()
	mAofBytes.Add(int64(n))
	mAofSize.Set(float64(a.size))
}

// syncLocked flushes the buffer and fsyncs the file; caller holds a.mu.
func (a *aofWriter) syncLocked() error {
	if !a.dirty {
		return nil
	}
	if err := a.w.Flush(); err != nil {
		return err
	}
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.dirty = false
	mAofFsyncs.Inc()
	return nil
}

// Sync forces a flush+fsync of any buffered appends.
func (a *aofWriter) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.syncLocked(); err != nil {
		if a.err == nil {
			a.err = err
		}
		return err
	}
	return a.err
}

// flushLoop is the FsyncInterval background ticker.
func (a *aofWriter) flushLoop() {
	defer close(a.done)
	t := time.NewTicker(a.opt.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.Sync() //nolint:errcheck // sticky in a.err
		case <-a.stop:
			return
		}
	}
}

// close stops the flusher and closes the file after a final sync.
func (a *aofWriter) close() error {
	if a.stop != nil {
		close(a.stop)
		<-a.done
		a.stop = nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	serr := a.syncLocked()
	cerr := a.f.Close()
	if a.err != nil {
		return a.err
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// writeCmd marshals one command as a RESP array of bulk strings — the exact
// frame the wire protocol uses, so one decoder (readCommand) serves the
// server, AOF replay and replication alike.
func writeCmd(w *bufio.Writer, args []string) error {
	if err := writeArray(w, len(args)); err != nil {
		return err
	}
	for _, s := range args {
		if err := writeBulk(w, s); err != nil {
			return err
		}
	}
	return nil
}

// respArrayLen returns the encoded size of a command frame.
func respArrayLen(args []string) int {
	n := 1 + intDigits(len(args)) + 2
	for _, s := range args {
		n += 1 + intDigits(len(s)) + 2 + len(s) + 2
	}
	return n
}

func intDigits(v int) int {
	if v == 0 {
		return 1
	}
	d := 0
	for v > 0 {
		d++
		v /= 10
	}
	return d
}

// Open loads (or creates) a durable store rooted at dir: it picks the
// newest complete generation, loads its snapshot, replays the AOF tail —
// truncating a torn final record from a mid-write crash — and attaches an
// appender so every subsequent write is logged.
func Open(dir string, opt PersistOptions) (*Store, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	snapGens := map[int]bool{}
	aofGens := map[int]bool{}
	for _, e := range entries {
		if g, ok := parseGen(e.Name(), "snap-"); ok {
			snapGens[g] = true
		}
		if g, ok := parseGen(e.Name(), "aof-"); ok {
			aofGens[g] = true
		}
	}

	// Recovery generation: the newest one whose snapshot committed (rename
	// completed). With no snapshot at all, the oldest AOF holds the full
	// history. Anything else on disk is a stale or half-written generation.
	gen := 0
	for g := range snapGens {
		if g > gen {
			gen = g
		}
	}
	if gen == 0 {
		for g := range aofGens {
			if gen == 0 || g < gen {
				gen = g
			}
		}
	}
	if gen == 0 {
		gen = 1
	}

	s := New()
	if snapGens[gen] {
		// A committed snapshot is fsynced before rename: a decode error
		// here is real corruption, not a torn write — fail loudly.
		if _, err := replayFile(s, snapPath(dir, gen), false); err != nil {
			return nil, fmt.Errorf("kvstore: snapshot %s: %w", snapPath(dir, gen), err)
		}
	}
	if aofGens[gen] {
		if _, err := replayFile(s, aofPath(dir, gen), true); err != nil {
			return nil, fmt.Errorf("kvstore: aof %s: %w", aofPath(dir, gen), err)
		}
	}
	// Drop every other generation's files.
	for g := range snapGens {
		if g != gen {
			os.Remove(snapPath(dir, g)) //nolint:errcheck
		}
	}
	for g := range aofGens {
		if g != gen {
			os.Remove(aofPath(dir, g)) //nolint:errcheck
		}
	}

	f, err := os.OpenFile(aofPath(dir, gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	a := &aofWriter{
		dir:          dir,
		opt:          opt,
		compactEvery: opt.CompactEvery,
		gen:          gen,
		f:            f,
		w:            bufio.NewWriter(f),
		size:         st.Size(),
	}
	if opt.Fsync == FsyncInterval {
		a.stop = make(chan struct{})
		a.done = make(chan struct{})
		go a.flushLoop()
	}
	mAofSize.Set(float64(a.size))
	s.mu.Lock()
	s.aof = a
	s.logging = true
	s.mu.Unlock()
	return s, nil
}

// Sync forces buffered AOF appends to disk (no-op without persistence).
func (s *Store) Sync() error {
	s.mu.RLock()
	a := s.aof
	s.mu.RUnlock()
	if a == nil {
		return nil
	}
	return a.Sync()
}

// Close flushes and closes the AOF and detaches it; in-memory operation
// continues to work. Safe on a purely in-memory store.
func (s *Store) Close() error {
	s.mu.Lock()
	a := s.aof
	s.aof = nil
	if len(s.feeds) == 0 {
		s.logging = false
	}
	s.mu.Unlock()
	if a == nil {
		return nil
	}
	return a.close()
}

// countingReader tracks how many bytes the decoder has consumed from the
// underlying file, so a torn tail can be truncated at the last whole
// command.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// replayFile applies every command in a RESP command-stream file to the
// store. With lenient=true (AOF tail), a decode error mid-file — the
// signature of a crash between bytes of an append — truncates the file to
// the last complete command instead of failing recovery.
func replayFile(s *Store, path string, lenient bool) (int, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	applied := 0
	good := int64(0)
	for {
		args, err := readCommand(br)
		if err != nil {
			if err == io.EOF {
				return applied, nil
			}
			if !lenient {
				return applied, err
			}
			st, serr := f.Stat()
			if serr != nil {
				return applied, serr
			}
			dropped := st.Size() - good
			if terr := f.Truncate(good); terr != nil {
				return applied, terr
			}
			mAofTruncated.Add(dropped)
			kvlog.Warn("aof tail truncated",
				"path", path, "dropped_bytes", dropped, "replayed", applied)
			return applied, nil
		}
		if err := applyLogged(s, args); err != nil {
			if !lenient {
				return applied, err
			}
			kvlog.Warn("aof replay skipped bad command",
				"path", path, "cmd", strings.Join(args, " "), "err", err)
			continue
		}
		applied++
		good = cr.n - int64(br.Buffered())
		mAofReplayed.Inc()
	}
}

var errBadLogCmd = errors.New("kvstore: malformed logged command")

// applyLogged applies one logged command to the store through its public
// API — the one decoder shared by AOF replay, snapshot load and the replica
// apply loop. On a store with persistence attached the command is re-logged,
// which is exactly what a durable replica wants. The six forms below are
// every form a mutator logs; a log written by an older build that still
// holds a retired one (SETAT, EXPIREAT, INCR, LPUSH, RPOP) is not migrated:
// the form is an unknown command, which fails a snapshot and is skipped
// with a warning in an AOF tail (replayFile).
func applyLogged(s *Store, args []string) error {
	if len(args) == 0 {
		return errBadLogCmd
	}
	switch strings.ToUpper(args[0]) {
	case "SET":
		if len(args) != 3 {
			return errBadLogCmd
		}
		s.Set(args[1], args[2])
	case "DEL":
		if len(args) != 2 {
			return errBadLogCmd
		}
		s.Del(args[1])
	case "HSET":
		if len(args) != 4 {
			return errBadLogCmd
		}
		s.HSet(args[1], args[2], args[3])
	case "HDEL":
		if len(args) != 3 {
			return errBadLogCmd
		}
		s.HDel(args[1], args[2])
	case "RPUSH":
		if len(args) < 3 {
			return errBadLogCmd
		}
		s.RPush(args[1], args[2:]...)
	case "LPOP":
		if len(args) != 2 {
			return errBadLogCmd
		}
		s.LPop(args[1])
	default:
		return fmt.Errorf("kvstore: unknown logged command %q", args[0])
	}
	return nil
}

// sortedStrKeys returns a map's keys sorted (snapshot determinism).
func sortedStrKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
