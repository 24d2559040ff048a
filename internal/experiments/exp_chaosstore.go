package experiments

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"tero/internal/download"
	"tero/internal/kvstore"
)

func init() {
	register("chaos-store",
		"store-crash durability: kill the kvstore mid-run and restart it from its log vs crash-free golden",
		runChaosStore)
}

// runChaosStore is the kill-the-store chaos experiment: the full pipeline
// coordinates through a kvstore over TCP, and the store itself is crashed
// mid-run and recovered by reopening its AOF+snapshot from disk — in
// process, and (when Options.StoreExec names a terokv binary) once more as a
// real child process killed with SIGKILL. Crashes happen at quiescent points
// (between ticks, no command in flight), the discipline a deployment gets
// from draining before restart, and only once the store holds a claim and
// its log a committed snapshot (crashPoint); within it, recovery must be
// exact: every leg's final tables must be byte-identical to a crash-free
// golden run.
func runChaosStore(o Options) ([]*Table, error) {
	o.Faults = 0 // isolate store crashes from platform fault injection
	total := volumeTickCount(o)
	if total < 3 {
		return nil, fmt.Errorf("chaos-store: %d ticks is too short to crash mid-run", total)
	}
	crashFrom := total / 3

	renderTabs := func(ts []*Table) string {
		var sb strings.Builder
		for _, t := range ts {
			sb.WriteString(t.String())
		}
		return sb.String()
	}

	summary := &Table{
		Title:  "Store-crash chaos: crash the kvstore mid-run vs crash-free golden",
		Header: []string{"leg", "crash tick", "tables byte-identical"},
	}
	counters := &Table{
		Title:  "Store-crash recovery counters (in-process legs)",
		Header: []string{"leg", "counter", "value"},
	}

	goldTabs, err := legGolden(o)
	if err != nil {
		return nil, fmt.Errorf("chaos-store golden: %w", err)
	}
	gold := renderTabs(goldTabs)
	summary.AddRow("golden (no crash)", "-", "baseline")

	runLeg := func(name string, leg func(*crashPoint) ([]*Table, error), watch []string) error {
		delta := counterDelta()
		crash := &crashPoint{from: crashFrom, at: -1}
		tabs, err := leg(crash)
		if err != nil {
			return fmt.Errorf("chaos-store %s: %w", name, err)
		}
		d := delta()
		out := renderTabs(tabs)
		identical := "yes"
		if out != gold {
			identical = "NO"
			summary.Notes = append(summary.Notes,
				name+" first diverging line: "+firstDiffLine(gold, out))
		}
		crashTick := itoa(crash.at)
		if crash.at < 0 {
			crashTick = "-"
			summary.Notes = append(summary.Notes, fmt.Sprintf(
				"WARNING: %s never crashed the store: no tick from %d on left a claim in it and a snapshot on disk",
				name, crashFrom))
		}
		summary.AddRow(name, crashTick, identical)
		for _, c := range watch {
			counters.AddRow(name, c, itoa(int(d[c])))
		}
		return nil
	}

	if err := runLeg("restart-from-aof",
		func(crash *crashPoint) ([]*Table, error) { return legRestart(o, crash) },
		[]string{"kvstore_aof_appends_total", "kvstore_snapshots_total",
			"kvstore_aof_replayed_total", "kvstore_client_redials_total"}); err != nil {
		return nil, err
	}
	if o.StoreExec != "" {
		if err := runLeg("sigkill-exec",
			func(crash *crashPoint) ([]*Table, error) { return legExec(o, crash) },
			[]string{"kvstore_client_redials_total"}); err != nil {
			return nil, err
		}
		counters.Notes = append(counters.Notes,
			"sigkill-exec AOF/replay counters live in the terokv child process, not this registry")
	}
	summary.Notes = append(summary.Notes,
		"crashes land at quiescent points (between ticks); recovery loads the "+
			"snapshot, replays the AOF tail (fsynced per write) and the clients "+
			"redial-and-resume — so the crashed runs measure exactly what the "+
			"crash-free run measures")
	return append([]*Table{summary, counters}, goldTabs...), nil
}

// crashPoint is where a leg crashes the store: after the first tick from
// `from` on that leaves a claim in it and a committed snapshot in its
// directory. A claim means a downloader's state is in the store; a crash
// before any streamer went live would leave recovery nothing to restore,
// and one before the first snapshot would test the AOF replay alone. at is
// the tick it crashed after, -1 until then.
type crashPoint struct{ from, at int }

// due reports, once, whether the store kv, logging under dir, should crash
// after tick i.
func (c *crashPoint) due(kv kvstore.KV, dir string, i int) bool {
	if c.at >= 0 || i < c.from || len(kv.HGetAll(download.KeyClaimed)) == 0 {
		return false
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.resp")); len(snaps) == 0 {
		return false
	}
	c.at = i
	return true
}

// dialRetry dials the store with a redial budget generous enough to ride
// out an in-run crash + restart.
func dialRetry(addr string) (*kvstore.RemoteStore, error) {
	rs, err := kvstore.DialStore(addr)
	if err != nil {
		return nil, err
	}
	rs.Client().MaxRedials = 120
	rs.Client().RedialWait = 50 * time.Millisecond
	return rs, nil
}

// legGolden runs crash-free, but still over TCP so every leg shares one
// transport.
func legGolden(o Options) ([]*Table, error) {
	srv, err := kvstore.Serve(kvstore.New(), "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	rs, err := dialRetry(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	return runVolumeWith(o, rs, nil)
}

// legRestart crashes the store at crash and recovers it from disk, which
// fsyncs every write, so a kill at any instant loses nothing: the server is
// hard-stopped and its store abandoned unclosed (everything is already
// fsynced), then a fresh store Opens the same directory — snapshot load
// plus AOF tail replay — and rebinds the same address so the pipeline's
// clients reconnect and resume.
func legRestart(o Options, crash *crashPoint) ([]*Table, error) {
	dir, err := os.MkdirTemp("", "tero-chaos-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := kvstore.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := srv.Addr()
	rs, err := dialRetry(addr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	defer rs.Close()
	defer func() { srv.Close(); st.Close() }()

	onTick := func(i int) error {
		if !crash.due(rs, dir, i) {
			return nil
		}
		srv.Close() // crash: no store.Close, no flush — disk state is what it is
		st2, err := kvstore.Open(dir)
		if err != nil {
			return fmt.Errorf("recovery open: %w", err)
		}
		srv2, err := kvstore.Serve(st2, addr)
		if err != nil {
			return fmt.Errorf("rebind %s: %w", addr, err)
		}
		st, srv = st2, srv2
		return nil
	}
	return runVolumeWith(o, rs, onTick)
}

// storeProc is a terokv child process.
type storeProc struct {
	cmd  *exec.Cmd
	addr string
}

// startStoreProc launches terokv and waits for its address announcement.
func startStoreProc(bin, addr, dir string) (*storeProc, error) {
	cmd := exec.Command(bin, "-addr", addr, "-dir", dir, "-log", "warn")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	got := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "terokv listening at "); ok && !announced {
				announced = true
				got <- a
			}
			// Keep draining so the child never blocks on a full pipe.
		}
	}()
	select {
	case a := <-got:
		return &storeProc{cmd: cmd, addr: a}, nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
		return nil, errors.New("terokv did not announce its address")
	}
}

// kill SIGKILLs the child and reaps it.
func (p *storeProc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck
	p.cmd.Wait()         //nolint:errcheck
}

// legExec is legRestart with a real process boundary: the store runs as a
// terokv child, dies by SIGKILL, and a fresh child recovers from the same
// directory on the same port.
func legExec(o Options, crash *crashPoint) ([]*Table, error) {
	dir, err := os.MkdirTemp("", "tero-chaos-exec-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	proc, err := startStoreProc(o.StoreExec, "127.0.0.1:0", dir)
	if err != nil {
		return nil, err
	}
	defer func() { proc.kill() }()
	rs, err := dialRetry(proc.addr)
	if err != nil {
		return nil, err
	}
	defer rs.Close()

	onTick := func(i int) error {
		if !crash.due(rs, dir, i) {
			return nil
		}
		addr := proc.addr
		proc.kill() // SIGKILL: no shutdown handler runs
		np, err := startStoreProc(o.StoreExec, addr, dir)
		if err != nil {
			return fmt.Errorf("restart terokv: %w", err)
		}
		proc = np
		return nil
	}
	return runVolumeWith(o, rs, onTick)
}
