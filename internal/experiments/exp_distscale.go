package experiments

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"tero/internal/dist"
	"tero/internal/download"
	"tero/internal/kvstore"
	"tero/internal/par"
	"tero/internal/pipeline"
	"tero/internal/twitchsim"
	"tero/internal/worldsim"
)

func init() {
	register("dist-scale",
		"distributed ingest: 1/2/4/8 workers over TCP vs a single-process golden — byte-identity, throughput, crash recovery",
		runDistScale)
}

// distCDNLatency is the simulated CDN round-trip each thumbnail fetch pays
// (a pure real-time sleep; no data changes). It is what parallel fetchers
// overlap: one worker pays it serially, N workers pay it N ways in
// parallel, as the golden's four downloaders do four ways — so the
// experiment measures coordination overhead and scaling honestly even on a
// single-core machine, where the CPU half of the work cannot parallelize
// at all.
const distCDNLatency = 100 * time.Millisecond

// distWorld is the dist-scale world: smaller than the volume run (every
// fleet size replays it) but live enough that the queue, the claim
// discipline and the result merge all see real traffic.
func distWorld(o Options) worldsim.Config {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(150)
	span := time.Duration(distTicks(o)) * distTickEvery
	cfg.Days = int(span/(24*time.Hour)) + 1 // cover the tick span in virtual days
	cfg.LocatableFrac = 0.6
	return cfg
}

// distTickEvery is dist-scale's tick, 5 virtual minutes instead of App. A's 2.
const distTickEvery = 5 * time.Minute

// distTicks is the number of distTickEvery ticks each leg drives —
// floored at one full virtual day, because sessions start in each
// streamer's local evening: a shorter window would see only one sliver of
// the world's longitudes. The tick matches the platform's thumbnail
// refresh cadence, so every live streamer has exactly one fetch due every
// round: each round carries as many parallel fetches as there are live
// streamers, which is what a worker fleet can actually overlap. (At a
// finer tick most rounds carry 0–2 due fetches and even a large fleet
// serializes on them.)
func distTicks(o Options) int {
	return max(o.scaled(288), 288)
}

// runDistScale runs the distributed-ingest scaling experiment: a
// single-process golden run, then fleets of 1/2/4/8 workers — real child
// processes when Options.WorkerExec is set, in-process workers over real
// TCP otherwise — each of which must reproduce the golden analysis tables
// byte for byte. The largest fleet runs once more with one worker killed
// mid-run to prove the coordinator's reap path restores exactness. Wall
// times and per-worker balance are reported; DISTBENCH lines on stdout
// repeat each leg as one JSON object.
func runDistScale(o Options) ([]*Table, error) {
	o.Faults = 0 // fault injection has its own experiment; isolate scaling
	fleets := o.DistFleets
	if len(fleets) == 0 {
		fleets = []int{1, 2, 4, 8}
	}
	ticks := distTicks(o)
	crashFrom := ticks / 3
	if crashFrom < 1 {
		return nil, fmt.Errorf("dist-scale: %d ticks is too short", ticks)
	}

	renderTabs := func(ts []*Table) string {
		var sb strings.Builder
		for _, t := range ts {
			sb.WriteString(t.String())
		}
		return sb.String()
	}

	mode := "in-process workers over TCP"
	if o.WorkerExec != "" {
		mode = "child processes (" + o.WorkerExec + ")"
	}
	summary := &Table{
		Title:  "Distributed ingest scaling — " + mode,
		Header: []string{"leg", "workers", "wall", "speedup", "tables byte-identical"},
	}
	balance := &Table{
		Title:  "Worker balance (largest fleet)",
		Header: []string{"worker", "rounds", "claims", "fetches", "extracted"},
	}

	goldTabs, goldWall, err := distGolden(o)
	if err != nil {
		return nil, fmt.Errorf("dist-scale golden: %w", err)
	}
	gold := renderTabs(goldTabs)
	summary.AddRow("golden (single process)", "0", goldWall.Round(time.Millisecond).String(),
		"-", "baseline")

	var base time.Duration
	maxFleet := 0
	for _, n := range fleets {
		if n > maxFleet {
			maxFleet = n
		}
	}
	for _, n := range fleets {
		tabs, wall, coord, _, err := runDistLeg(o, n, -1)
		if err != nil {
			return nil, fmt.Errorf("dist-scale fleet=%d: %w", n, err)
		}
		if base == 0 {
			base = wall
		}
		identical := "yes"
		if out := renderTabs(tabs); out != gold {
			identical = "NO"
			summary.Notes = append(summary.Notes, fmt.Sprintf(
				"fleet=%d first diverging line: %s", n, firstDiffLine(gold, renderTabs(tabs))))
		}
		speedup := float64(base) / float64(wall)
		summary.AddRow(fmt.Sprintf("fleet=%d", n), itoa(n),
			wall.Round(time.Millisecond).String(), f2(speedup)+"x", identical)
		fmt.Printf("DISTBENCH {\"fleet\":%d,\"wall_s\":%.3f,\"speedup\":%.3f,\"identical\":%v,"+
			"\"ingested\":%d,\"rounds\":%d,\"makeup_rounds\":%d}\n",
			n, wall.Seconds(), speedup, identical == "yes",
			coord.Ingested, coord.Rounds, coord.MakeupRounds)
		if n == maxFleet {
			for _, ws := range coord.Stats() {
				balance.AddRow(ws.Worker, itoa(ws.Rounds), itoa(ws.Claims),
					itoa(ws.Fetches), itoa(ws.Extracted))
			}
		}
	}

	// Crash leg: SIGKILL (or halt) a worker of the largest fleet that holds a
	// claim, at the first tick from a third of the way through where one
	// does; the survivors plus the coordinator's reaper must still reproduce
	// the golden tables exactly.
	if maxFleet >= 2 {
		tabs, wall, coord, killedAt, err := runDistLeg(o, maxFleet, crashFrom)
		if err != nil {
			return nil, fmt.Errorf("dist-scale crash leg: %w", err)
		}
		identical := "yes"
		if out := renderTabs(tabs); out != gold {
			identical = "NO"
			summary.Notes = append(summary.Notes,
				"crash leg first diverging line: "+firstDiffLine(gold, renderTabs(tabs)))
		}
		summary.AddRow(fmt.Sprintf("fleet=%d, 1 killed @tick %d", maxFleet, killedAt),
			itoa(maxFleet), wall.Round(time.Millisecond).String(), "-", identical)
		fmt.Printf("DISTBENCH {\"fleet\":%d,\"crash\":true,\"wall_s\":%.3f,\"identical\":%v,"+
			"\"dead\":%d,\"claims_reaped\":%d,\"lost_requeued\":%d,\"deduped\":%d}\n",
			maxFleet, wall.Seconds(), identical == "yes",
			coord.DeadWorkers, coord.ReapedClaims, coord.LostRequeued, coord.Deduped)
		summary.Notes = append(summary.Notes, fmt.Sprintf(
			"crash leg: %d worker(s) declared dead, %d claims reaped, %d lost requeued, "+
				"%d duplicate results deduped",
			coord.DeadWorkers, coord.ReapedClaims, coord.LostRequeued, coord.Deduped))
		if coord.DeadWorkers == 0 {
			summary.Notes = append(summary.Notes,
				"WARNING: crash leg never declared the killed worker dead")
		}
		if coord.ReapedClaims == 0 {
			summary.Notes = append(summary.Notes,
				"WARNING: crash leg reaped no claim: the reap path went unexercised")
		}
	}
	summary.Notes = append(summary.Notes, fmt.Sprintf(
		"every fetch pays a %s simulated CDN RTT (pure sleep): a fleet overlaps it "+
			"across its workers, the golden across its 4 downloaders", distCDNLatency))
	summary.Notes = append(summary.Notes,
		"identical means the full analysis tables match the single-process golden byte for byte")
	return append([]*Table{summary, balance}, goldTabs...), nil
}

// distTables renders the leg's end state: the volume experiment's coverage
// metrics. Golden and every fleet leg must agree on every byte.
func distTables(p *pipeline.Pipeline, cfg worldsim.Config) []*Table {
	t := coverageTable(p, "Distributed ingest — volume and coverage", true)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"world: %d streamers, %d virtual days", cfg.Streamers, cfg.Days))
	return []*Table{t}
}

// distGolden is the single-process reference: the production pipeline, four
// downloaders, everything in one process. Deal adopts every queued streamer
// on the tick that queued it and thumbnails carry their window's time, so a
// fleet of any size must store the same readings.
func distGolden(o Options) ([]*Table, time.Duration, error) {
	cfg := distWorld(o)
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	defer platform.Close()
	platform.SetCDNLatency(distCDNLatency)

	p := pipeline.New(platform.URL(), 4)
	p.Concurrency = par.Workers(o.Concurrency)

	start := time.Now()
	if err := pipeline.Drive(platform, p, nil, distTicks(o), distTickEvery, nil); err != nil {
		return nil, 0, err
	}
	return distTables(p, cfg), time.Since(start), nil
}

// distWorker is one member of a leg's fleet: a child process (WorkerExec)
// or an in-process goroutine running the same RunWorker loop over the same
// TCP wire.
type distWorker struct {
	id   string
	cmd  *exec.Cmd
	halt chan struct{}
	done chan error
	gone bool // killed or reaped
}

// kill crashes the worker: SIGKILL for a child process, closing the halt
// channel for an in-process one. Either way heartbeats stop and the
// coordinator must notice on its own.
func (w *distWorker) kill() {
	w.gone = true
	if w.cmd != nil {
		w.cmd.Process.Kill() //nolint:errcheck
		w.cmd.Wait()         //nolint:errcheck
		return
	}
	close(w.halt)
	<-w.done
}

// wait reaps a cleanly exiting worker.
func (w *distWorker) wait() error {
	w.gone = true
	if w.cmd != nil {
		return w.cmd.Wait()
	}
	return <-w.done
}

// startDistWorker launches worker id against the store address.
func startDistWorker(o Options, id, addr string) (*distWorker, error) {
	if o.WorkerExec != "" {
		cmd := exec.Command(o.WorkerExec, "-store", addr, "-id", id, "-log", "warn")
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &distWorker{id: id, cmd: cmd}, nil
	}
	w := &distWorker{id: id, halt: make(chan struct{}), done: make(chan error, 1)}
	go func() {
		w.done <- dist.RunWorker(dist.WorkerConfig{ID: id, StoreAddr: addr, Halt: w.halt})
	}()
	return w, nil
}

// runDistLeg drives one fleet of n workers through the full observation
// period. crashFrom >= 0 kills one worker: after the first tick from
// crashFrom on that leaves some worker holding a claim, the first such
// worker in fleet order (a worker holding none would leave the reaper
// nothing to do). The leg then proves the reap path (claims requeued,
// duplicates deduped) preserves exactness; killedAt is the tick the kill
// followed, or -1.
func runDistLeg(o Options, n, crashFrom int) ([]*Table, time.Duration, *dist.Coordinator, int, error) {
	cfg := distWorld(o)
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	defer platform.Close()
	platform.SetCDNLatency(distCDNLatency)

	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		return nil, 0, nil, -1, err
	}
	defer srv.Close()

	p := pipeline.NewWithKV(platform.URL(), 1, st)
	p.Concurrency = par.Workers(o.Concurrency)
	coord := dist.NewCoordinator(p, st)

	workers := make([]*distWorker, n)
	defer func() {
		for _, w := range workers {
			if w != nil && !w.gone {
				w.kill() // leg failed mid-run: don't leak processes/goroutines
			}
		}
	}()
	for i := range workers {
		w, err := startDistWorker(o, fmt.Sprintf("w%d", i+1), srv.Addr())
		if err != nil {
			return nil, 0, nil, -1, err
		}
		workers[i] = w
	}
	if err := coord.WaitWorkers(context.Background(), n, 30*time.Second); err != nil {
		return nil, 0, nil, -1, err
	}

	killedAt := -1
	start := time.Now()
	crash := func(i int) error {
		if crashFrom >= 0 && killedAt < 0 && i >= crashFrom {
			// Between ticks the fleet is quiescent: the claim table is the
			// one the next round starts from.
			if v := claimHolder(st, workers); v >= 0 {
				workers[v].kill()
				killedAt = i
			}
		}
		return nil
	}
	if err := pipeline.Drive(platform, p, coord, distTicks(o), distTickEvery, crash); err != nil {
		return nil, 0, nil, -1, err
	}
	wall := time.Since(start)
	coord.EndRun()
	for _, w := range workers {
		if w.gone {
			continue
		}
		if err := w.wait(); err != nil {
			return nil, 0, nil, -1, fmt.Errorf("worker %s: %w", w.id, err)
		}
	}
	return distTables(p, cfg), wall, coord, killedAt, nil
}

// claimHolder returns the index of the first worker, in fleet order, whose
// downloader ("<id>:dl0") holds a claim in the shared claim table, or -1.
func claimHolder(kv kvstore.KV, workers []*distWorker) int {
	claims := kv.HGetAll(download.KeyClaimed)
	for i, w := range workers {
		for _, owner := range claims {
			if strings.HasPrefix(owner, w.id+":") {
				return i
			}
		}
	}
	return -1
}
