package netsim

import (
	"math/rand"
	"time"
)

// TestbedConfig parameterizes one run of the Fig. 3 testbed experiment
// (Table 2 lists the paper's sweep values).
type TestbedConfig struct {
	// Game is a display name (the paper uses Genshin Impact and LoL).
	Game string
	// BaseOneWay is the propagation delay from Switch1 to the game server,
	// which sets the game's baseline latency (Genshin ≈ 15ms RTT, LoL ≈ 37ms).
	BaseOneWay time.Duration
	// BottleneckBW is the bottleneck bandwidth in bits/s (1e9 or 1e8).
	BottleneckBW float64
	// QueueCap is the bottleneck queue size in packets {50,500,1000,5000}.
	QueueCap int
	// UDPFlows CBR flows at UDPFrac of the bottleneck bandwidth each.
	UDPFlows int
	UDPFrac  float64
	// TCPFlows paced TCP flows at TCPFrac of bandwidth each, staggered.
	TCPFlows   int
	TCPFrac    float64
	TCPStagger time.Duration
	// Phase durations: start-up (no traffic), UDP-only, UDP+TCP, die-down.
	Startup, UDPPhase, MixedPhase, DieDown time.Duration
	// SampleEvery is the measurement cadence (paper: 5 Hz).
	SampleEvery time.Duration
	// AvgWindow is the game's latency-display averaging window (the paper
	// posits "a few seconds"; default 3s). When scaling the experiment
	// down in time, scale this too to preserve the lag-to-phase ratio.
	AvgWindow time.Duration
	// Seed varies flow phases across repetitions.
	Seed int64
}

// DefaultTestbedConfig returns the paper's experiment shape (Table 2),
// scaled in time by `scale` (1.0 = the paper's full 5 minutes).
func DefaultTestbedConfig(game string, baseOneWay time.Duration, bw float64, queue int, scale float64, seed int64) TestbedConfig {
	d := func(dur time.Duration) time.Duration {
		return time.Duration(float64(dur) * scale)
	}
	return TestbedConfig{
		Game: game, BaseOneWay: baseOneWay,
		BottleneckBW: bw, QueueCap: queue,
		UDPFlows: 2, UDPFrac: 0.5,
		TCPFlows: 8, TCPFrac: 0.10, TCPStagger: d(5 * time.Second),
		Startup: d(2 * time.Minute), UDPPhase: d(1 * time.Minute),
		MixedPhase: d(1 * time.Minute), DieDown: d(1 * time.Minute),
		SampleEvery: 200 * time.Millisecond,
		AvgWindow:   max(d(3*time.Second), 500*time.Millisecond),
		Seed:        seed,
	}
}

// TestbedSample is one 5-Hz measurement row.
type TestbedSample struct {
	At time.Duration
	// ControlMs and TestMs are the gaming latencies displayed at the two
	// play-stations.
	ControlMs, TestMs float64
	// BottleneckMs is the network RTT contribution of the bottleneck.
	BottleneckMs float64
}

// TestbedResult is the output of one experiment run.
type TestbedResult struct {
	Config  TestbedConfig
	Samples []TestbedSample
	// MaxBottleneckMs is the worst bottleneck network latency observed
	// (the x-axis annotation of Fig. 4).
	MaxBottleneckMs float64
	// Drops counts bottleneck queue drops.
	Drops int
}

// AdjustedDiffs returns |adjusted gaming latency − network latency| per
// sample, where adjusted = Test display − Control display (§4.1), for
// samples after warm-up.
func (r *TestbedResult) AdjustedDiffs() []float64 {
	var out []float64
	warm := r.Config.Startup / 2
	for _, s := range r.Samples {
		if s.At < warm {
			continue
		}
		adj := s.TestMs - s.ControlMs
		d := adj - s.BottleneckMs
		if d < 0 {
			d = -d
		}
		out = append(out, d)
	}
	return out
}

// RunTestbed builds the Fig. 3 topology and runs one experiment.
//
// Topology (unidirectional link pairs):
//
//	Control ── sw1 ───────────────────────┐
//	Test ── router ══ bottleneck ══ sw2 ── sw1 ── server
//	           ↑ background UDP/TCP traffic crosses the bottleneck
func RunTestbed(cfg TestbedConfig) *TestbedResult {
	sim := NewSim()
	rng := rand.New(rand.NewSource(cfg.Seed))
	server := NewGameServer(sim)

	const (
		lanBW    = 1e9
		lanDelay = 200 * time.Microsecond
		udpPkt   = 1200
		tcpSeg   = 1500
	)

	// --- Control path: Control -> sw1 -> server and back. ---
	ctrlUp1 := NewLink(sim, lanBW, lanDelay, 1000, nil)
	ctrlUp2 := NewLink(sim, lanBW, cfg.BaseOneWay, 1000, nil)
	ctrlUpPath := Chain(ctrlUp1, ctrlUp2)
	Terminate(ctrlUp2, server)

	ctrlDown1 := NewLink(sim, lanBW, cfg.BaseOneWay, 1000, nil)
	ctrlDown2 := NewLink(sim, lanBW, lanDelay, 1000, nil)
	ctrlDownPath := Chain(ctrlDown1, ctrlDown2)

	control := NewGameClient(sim, 1, ctrlUpPath)
	Terminate(ctrlDown2, control)
	server.Register(1, ctrlDownPath)

	// --- Test path: Test -> router -> [bottleneck] -> sw2 -> sw1 -> server. ---
	testUp1 := NewLink(sim, lanBW, lanDelay, 1000, nil)                       // Test -> router
	bottleneck := NewLink(sim, cfg.BottleneckBW, lanDelay, cfg.QueueCap, nil) // router -> sw2
	testUp3 := NewLink(sim, lanBW, lanDelay, 1000, nil)                       // sw2 -> sw1
	testUp4 := NewLink(sim, lanBW, cfg.BaseOneWay, 1000, nil)                 // sw1 -> server
	testUpPath := Chain(testUp1, bottleneck, testUp3, testUp4)
	Terminate(testUp4, server)

	testDown1 := NewLink(sim, lanBW, cfg.BaseOneWay, 1000, nil)                  // server -> sw1
	testDown2 := NewLink(sim, lanBW, lanDelay, 1000, nil)                        // sw1 -> sw2
	revBottleneck := NewLink(sim, cfg.BottleneckBW, lanDelay, cfg.QueueCap, nil) // sw2 -> router
	testDown4 := NewLink(sim, lanBW, lanDelay, 1000, nil)                        // router -> Test
	testDownPath := Chain(testDown1, testDown2, revBottleneck, testDown4)

	test := NewGameClient(sim, 2, testUpPath)
	Terminate(testDown4, test)
	server.Register(2, testDownPath)

	// Desynchronize the two clients slightly.
	test.TickEvery += time.Duration(rng.Intn(1000)) * time.Microsecond
	if cfg.AvgWindow > 0 {
		control.AvgWindow = cfg.AvgWindow
		test.AvgWindow = cfg.AvgWindow
	}

	// --- Background traffic across the bottleneck. ---
	// Generators connect directly to the router, sinks to sw2 (Fig. 3), so
	// their traffic enters the bottleneck queue directly.
	bottleneckEntry := ReceiverFunc(func(p Packet) { bottleneck.Send(p) })
	revEntry := ReceiverFunc(func(p Packet) { revBottleneck.Send(p) })

	udpStart := cfg.Startup
	udpStop := cfg.Startup + cfg.UDPPhase + cfg.MixedPhase
	sink := &UDPSink{}
	// Route background UDP through the bottleneck to the sink: the
	// bottleneck's Out was wired by Chain to feed testUp3; tee by flow id.
	for i := 0; i < cfg.UDPFlows; i++ {
		jitter := time.Duration(rng.Intn(2000)) * time.Microsecond
		NewUDPFlow(sim, 100+i, bottleneckEntry, cfg.UDPFrac*cfg.BottleneckBW,
			udpPkt, udpStart+jitter, udpStop)
	}

	// Tee at the bottleneck exit: game packets continue toward the server,
	// background flows terminate at their sinks on sw2.
	tcpReceivers := make(map[int]*TCPReceiver)
	exit := ReceiverFunc(func(p Packet) {
		switch {
		case p.Flow >= 200: // TCP background
			if r, ok := tcpReceivers[p.Flow]; ok {
				r.Receive(p)
			}
		case p.Flow >= 100: // UDP background
			sink.Receive(p)
		default:
			testUp3.Send(p)
		}
	})
	bottleneck.Out = exit

	mixedStart := cfg.Startup + cfg.UDPPhase
	tcpSenders := make(map[int]*TCPSender)
	for i := 0; i < cfg.TCPFlows; i++ {
		id := 200 + i
		start := mixedStart + time.Duration(i)*cfg.TCPStagger
		if start > udpStop {
			start = udpStop
		}
		snd := NewTCPSenderPaced(sim, id, bottleneckEntry, tcpSeg,
			start, udpStop, cfg.TCPFrac*cfg.BottleneckBW)
		tcpReceivers[id] = NewTCPReceiver(sim, id, revEntry)
		tcpSenders[id] = snd
	}

	// Reverse tee: ACKs to TCP senders, game updates to the Test client.
	revExit := ReceiverFunc(func(p Packet) {
		if p.Flow >= 200 {
			if s, ok := tcpSenders[p.Flow]; ok {
				s.Receive(p)
			}
			return
		}
		testDown4.Send(p)
	})
	revBottleneck.Out = revExit

	// --- Sampling. ---
	res := &TestbedResult{Config: cfg}
	total := cfg.Startup + cfg.UDPPhase + cfg.MixedPhase + cfg.DieDown
	probeSize := 64
	var sampleFn func()
	sampleFn = func() {
		bottleneckRTT := bottleneck.QueueDelay() + bottleneck.serialization(probeSize) +
			bottleneck.Delay + revBottleneck.OneWayDelay()
		s := TestbedSample{
			At:           sim.Now(),
			ControlMs:    control.DisplayedMs(),
			TestMs:       test.DisplayedMs(),
			BottleneckMs: float64(bottleneckRTT) / float64(time.Millisecond),
		}
		res.Samples = append(res.Samples, s)
		if s.BottleneckMs > res.MaxBottleneckMs {
			res.MaxBottleneckMs = s.BottleneckMs
		}
		if sim.Now() < total {
			sim.Schedule(cfg.SampleEvery, sampleFn)
		}
	}
	sim.Schedule(cfg.SampleEvery, sampleFn)

	sim.Run(total)
	res.Drops = bottleneck.Dropped
	return res
}
