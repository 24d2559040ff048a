package experiments

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"tero/internal/core"
	"tero/internal/dist"
	"tero/internal/download"
	"tero/internal/kvstore"
	"tero/internal/objstore"
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
// (a pure real-time sleep; no data changes). It is what a worker fleet
// overlaps: the single-process run pays it serially, N workers pay it N
// ways in parallel — so the experiment measures coordination overhead and
// scaling honestly even on a single-core machine, where the CPU half of
// the work cannot parallelize at all.
const distCDNLatency = 100 * time.Millisecond

// distWorld is the dist-scale world: smaller than the volume run (every
// fleet size replays it) but live enough that the queue, the claim
// discipline and the result merge all see real traffic.
func distWorld(o Options) worldsim.Config {
	cfg := worldsim.DefaultConfig(o.Seed)
	cfg.Streamers = o.scaled(150)
	ticks := distTicks(o)
	cfg.Days = (ticks*5)/(60*24) + 1 // cover the tick span in virtual days
	cfg.LocatableFrac = 0.6
	return cfg
}

// distTicks is the number of 5-minute virtual ticks each leg drives —
// floored at one full virtual day, because sessions start in each
// streamer's local evening: a shorter window would see only one sliver of
// the world's longitudes. The tick matches the platform's thumbnail
// refresh cadence, so every live streamer has exactly one fetch due every
// round: each round carries as many parallel fetches as there are live
// streamers, which is what a worker fleet can actually overlap. (At a
// finer tick most rounds carry 0–2 due fetches and even a large fleet
// serializes on them.)
func distTicks(o Options) int {
	t := o.scaled(288)
	if t < 288 {
		t = 288
	}
	return t
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
	crashTick := ticks / 3
	if crashTick < 1 {
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
		tabs, wall, coord, err := runDistLeg(o, n, -1)
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

	// Crash leg: SIGKILL (or halt) one worker of the largest fleet a third
	// of the way through; the survivors plus the coordinator's reaper must
	// still reproduce the golden tables exactly.
	if maxFleet >= 2 {
		tabs, wall, coord, err := runDistLeg(o, maxFleet, crashTick)
		if err != nil {
			return nil, fmt.Errorf("dist-scale crash leg: %w", err)
		}
		identical := "yes"
		if out := renderTabs(tabs); out != gold {
			identical = "NO"
			summary.Notes = append(summary.Notes,
				"crash leg first diverging line: "+firstDiffLine(gold, renderTabs(tabs)))
		}
		summary.AddRow(fmt.Sprintf("fleet=%d, 1 killed @tick %d", maxFleet, crashTick),
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
	}
	summary.Notes = append(summary.Notes, fmt.Sprintf(
		"every fetch pays a %s simulated CDN RTT (pure sleep): fleets overlap it, "+
			"the single process pays it serially", distCDNLatency))
	summary.Notes = append(summary.Notes,
		"identical means the full analysis tables match the single-process golden byte for byte")
	return append([]*Table{summary, balance}, goldTabs...), nil
}

// distTables renders the leg's end state: the same volume/coverage metrics
// the volume experiment reports, computed from the pipeline after
// locate+analyze. Golden and every fleet leg must agree on every byte.
func distTables(p *pipeline.Pipeline, cfg worldsim.Config) []*Table {
	analyses := p.Analyze(core.DefaultParams())
	streams := p.BuildStreams()
	kept, keptPoints := 0, 0
	streamerSet := map[string]bool{}
	countrySet := map[string]bool{}
	for _, a := range analyses {
		if a.Discarded {
			continue
		}
		kept++
		keptPoints += a.KeptPoints
		streamerSet[a.Streamer] = true
		if c := a.Location().Country; c != "" {
			countrySet[c] = true
		}
	}
	t := &Table{
		Title:  "Distributed ingest — volume and coverage",
		Header: []string{"metric", "value"},
	}
	t.AddRow("thumbnails processed", itoa(p.Processed))
	t.AddRow("latency measurements extracted", itoa(p.Extracted))
	t.AddRow("lobby zeros discarded", itoa(p.Zero))
	t.AddRow("extraction misses", itoa(p.Missed))
	t.AddRow("thumbnails quarantined", itoa(p.Quarantined))
	t.AddRow("streams", itoa(len(streams)))
	t.AddRow("{streamer, game} tuples analyzed", itoa(len(analyses)))
	t.AddRow("tuples kept after analysis", itoa(kept))
	t.AddRow("measurements retained", itoa(keptPoints))
	t.AddRow("distinct streamers with data", itoa(len(streamerSet)))
	t.AddRow("streamers located", itoa(p.Located))
	t.AddRow("countries covered", itoa(len(countrySet)))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"world: %d streamers, %d virtual days", cfg.Streamers, cfg.Days))
	return []*Table{t}
}

// distGolden is the single-process reference: one downloader in ClaimAll
// mode (drain the queue every poll, so adoption ticks match a fleet of any
// size) with window-stamped thumbnails, everything in one process.
func distGolden(o Options) ([]*Table, time.Duration, error) {
	cfg := distWorld(o)
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	defer platform.Close()
	platform.SetAPIRate(5000, 5000)
	platform.SetCDNLatency(distCDNLatency)

	p := pipeline.New(platform.URL(), 1)
	p.Concurrency = o.workers()
	d := p.Downloaders[0]
	d.Claim = download.ClaimAll
	d.WindowStamp = true

	ticks := distTicks(o)
	start := time.Now()
	for i := 0; i < ticks; i++ {
		if err := p.Tick(platform.Now(), i%3 == 0); err != nil {
			return nil, 0, err
		}
		if i%200 == 0 {
			p.ProcessThumbnails()
		}
		platform.Advance(5 * time.Minute)
	}
	p.ProcessThumbnails()
	wall := time.Since(start)
	p.LocateStreamers(platform.Now())
	return distTables(p, cfg), wall, nil
}

// distWorker is one member of a leg's fleet: a child process (WorkerExec)
// or an in-process goroutine running the same RunWorker loop over the same
// TCP wire.
type distWorker struct {
	id   string
	cmd  *exec.Cmd
	halt chan struct{}
	done chan error
}

// kill crashes the worker: SIGKILL for a child process, closing the halt
// channel for an in-process one. Either way heartbeats stop and the
// coordinator must notice on its own.
func (w *distWorker) kill() {
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
// period. crashTick >= 0 kills worker 0 at that tick; the leg then proves
// the reap path (claims requeued, duplicates deduped) preserves exactness.
func runDistLeg(o Options, n, crashTick int) ([]*Table, time.Duration, *dist.Coordinator, error) {
	cfg := distWorld(o)
	world := worldsim.New(cfg)
	platform := twitchsim.New(world)
	defer platform.Close()
	platform.SetAPIRate(5000, 5000)
	platform.SetCDNLatency(distCDNLatency)

	st := kvstore.New()
	srv, err := kvstore.Serve(st, "127.0.0.1:0")
	if err != nil {
		return nil, 0, nil, err
	}
	defer srv.Close()
	objects := objstore.New()
	srv.AttachObjects(objects)

	p := pipeline.NewWithKV(platform.URL(), 1, st)
	p.Objects = objects
	p.Concurrency = o.workers()
	coord := dist.NewCoordinator(p, st, objects)
	coord.Announce(platform.URL())

	workers := make([]*distWorker, n)
	var mu sync.Mutex
	killed := map[int]bool{}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for i, w := range workers {
			if w != nil && !killed[i] {
				w.kill() // leg failed mid-run: don't leak processes/goroutines
				killed[i] = true
			}
		}
	}()
	for i := range workers {
		w, err := startDistWorker(o, fmt.Sprintf("w%d", i+1), srv.Addr())
		if err != nil {
			return nil, 0, nil, err
		}
		workers[i] = w
	}
	if err := coord.WaitWorkers(n, 30*time.Second); err != nil {
		return nil, 0, nil, err
	}

	ticks := distTicks(o)
	start := time.Now()
	for i := 0; i < ticks; i++ {
		if i == crashTick {
			mu.Lock()
			workers[0].kill()
			killed[0] = true
			mu.Unlock()
		}
		if err := coord.Tick(platform.Now(), i, i%3 == 0); err != nil {
			return nil, 0, nil, err
		}
		platform.Advance(5 * time.Minute)
	}
	wall := time.Since(start)
	coord.EndRun()
	mu.Lock()
	for i, w := range workers {
		if killed[i] {
			continue
		}
		if err := w.wait(); err != nil {
			mu.Unlock()
			return nil, 0, nil, fmt.Errorf("worker %s: %w", w.id, err)
		}
		killed[i] = true
	}
	mu.Unlock()

	p.LocateStreamers(platform.Now())
	return distTables(p, cfg), wall, coord, nil
}
