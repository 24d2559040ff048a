package netsim

import (
	"testing"
	"time"

	"tero/internal/stats"
)

func TestSimEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 12) }) // FIFO tie
	s.Run(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 12 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != time.Second {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestSimRunStopsAtBoundary(t *testing.T) {
	s := NewSim()
	ran := false
	s.Schedule(2*time.Second, func() { ran = true })
	s.Run(time.Second)
	if ran {
		t.Fatal("future event ran early")
	}
	if len(s.events) != 1 {
		t.Fatal("event lost")
	}
	s.Run(3 * time.Second)
	if !ran {
		t.Fatal("event never ran")
	}
}

func TestLinkSerializationAndDelay(t *testing.T) {
	s := NewSim()
	var arrived time.Duration
	// 1 Mbps, 10ms propagation, 1250-byte packet = 10ms serialization.
	l := NewLink(s, 1e6, 10*time.Millisecond, 10,
		ReceiverFunc(func(p Packet) { arrived = s.Now() }))
	l.Send(Packet{Size: 1250})
	s.Run(time.Second)
	want := 20 * time.Millisecond
	if arrived != want {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
	if l.Sent != 1 || l.BytesSent != 1250 {
		t.Fatalf("counters: %d, %d", l.Sent, l.BytesSent)
	}
}

func TestLinkQueueDrops(t *testing.T) {
	s := NewSim()
	received := 0
	l := NewLink(s, 1e6, 0, 2, ReceiverFunc(func(p Packet) { received++ }))
	// Send 5 back-to-back: 1 in service + 2 queued + 2 dropped.
	for i := 0; i < 5; i++ {
		l.Send(Packet{Size: 1250})
	}
	if len(l.queue) != 2 {
		t.Fatalf("queue len = %d", len(l.queue))
	}
	if l.Dropped != 2 {
		t.Fatalf("dropped = %d", l.Dropped)
	}
	if l.QueueDelay() != 20*time.Millisecond {
		t.Fatalf("queue delay = %v", l.QueueDelay())
	}
	s.Run(time.Second)
	if received != 3 {
		t.Fatalf("received = %d", received)
	}
}

func TestUDPFlowRate(t *testing.T) {
	s := NewSim()
	sink := &UDPSink{}
	l := NewLink(s, 1e9, time.Millisecond, 0, sink)
	entry := ReceiverFunc(func(p Packet) { l.Send(p) })
	// 1 Mbps with 1250-byte packets = 100 pkt/s for 1 second.
	NewUDPFlow(s, 1, entry, 1e6, 1250, 0, time.Second)
	s.Run(2 * time.Second)
	if sink.Packets < 95 || sink.Packets > 105 {
		t.Fatalf("sink packets = %d, want ~100", sink.Packets)
	}
}

// wireTCP builds a symmetric sender/receiver pair over links with the given
// forward bandwidth/queue, returning the pieces.
func wireTCP(s *Sim, bw float64, queue int, delay time.Duration, paceRate float64, stop time.Duration) (*TCPSender, *TCPReceiver, *Link) {
	fwd := NewLink(s, bw, delay, queue, nil)
	rev := NewLink(s, bw, delay, 0, nil)
	var snd *TCPSender
	rcv := NewTCPReceiver(s, 1, ReceiverFunc(func(p Packet) { rev.Send(p) }))
	fwd.Out = rcv
	if paceRate > 0 {
		snd = NewTCPSenderPaced(s, 1, ReceiverFunc(func(p Packet) { fwd.Send(p) }), 1500, 0, stop, paceRate)
	} else {
		snd = NewTCPSender(s, 1, ReceiverFunc(func(p Packet) { fwd.Send(p) }), 1500, 0, stop)
	}
	rev.Out = snd
	return snd, rcv, fwd
}

func TestTCPDeliversInOrderUnderLoss(t *testing.T) {
	s := NewSim()
	// Tight queue forces drops; TCP must still deliver everything sent.
	snd, rcv, fwd := wireTCP(s, 2e6, 5, 5*time.Millisecond, 0, 2*time.Second)
	s.Run(4 * time.Second)
	if fwd.Dropped == 0 {
		t.Fatal("expected drops on a 5-packet queue")
	}
	if snd.Retransmits == 0 {
		t.Fatal("expected retransmissions")
	}
	if rcv.Received == 0 {
		t.Fatal("nothing delivered")
	}
	// Everything acked was delivered in order.
	if rcv.Received < snd.AckedSegments {
		t.Fatalf("received %d < acked %d", rcv.Received, snd.AckedSegments)
	}
}

func TestTCPThroughputApproachesBottleneck(t *testing.T) {
	s := NewSim()
	_, rcv, _ := wireTCP(s, 10e6, 100, 5*time.Millisecond, 0, 3*time.Second)
	s.Run(4 * time.Second)
	gotBits := float64(rcv.Received*1500*8) / 3.0
	if gotBits < 0.7*10e6 {
		t.Fatalf("throughput %.0f bits/s, want near 10M", gotBits)
	}
}

func TestTCPPacingCapsRate(t *testing.T) {
	s := NewSim()
	_, rcv, _ := wireTCP(s, 100e6, 1000, time.Millisecond, 5e6, 4*time.Second)
	s.Run(5 * time.Second)
	gotBits := float64(rcv.Received*1500*8) / 4.0
	if gotBits > 1.2*5e6 {
		t.Fatalf("paced throughput %.0f bits/s exceeds 5M cap", gotBits)
	}
	if gotBits < 0.5*5e6 {
		t.Fatalf("paced throughput %.0f bits/s too low", gotBits)
	}
}

func TestTCPRTOEstimation(t *testing.T) {
	s := NewSim()
	snd, _, _ := wireTCP(s, 10e6, 100, 20*time.Millisecond, 0, time.Second)
	s.Run(2 * time.Second)
	if snd.srtt < 40*time.Millisecond || snd.srtt > 200*time.Millisecond {
		t.Fatalf("SRTT = %v, want ≈ 40ms+queueing", snd.srtt)
	}
}

func TestGameDisplayedLatency(t *testing.T) {
	s := NewSim()
	server := NewGameServer(s)
	up := NewLink(s, 1e9, 10*time.Millisecond, 0, server)
	down := NewLink(s, 1e9, 10*time.Millisecond, 0, nil)
	client := NewGameClient(s, 1, ReceiverFunc(func(p Packet) { up.Send(p) }))
	down.Out = client
	server.Register(1, ReceiverFunc(func(p Packet) { down.Send(p) }))
	s.Run(5 * time.Second)
	got := client.DisplayedMs()
	if got < 19.5 || got < 0 || got > 21.5 {
		t.Fatalf("displayed = %.2f ms, want ≈ 20", got)
	}
	if client.RTTSamples == 0 || server.Updates == 0 {
		t.Fatal("no round trips")
	}
}

func TestGameDisplayLagsSharpChange(t *testing.T) {
	// The displayed latency is a 3s windowed average: right after a sharp
	// network change it must lag, then converge — the mechanism behind the
	// "few seconds" lag in §4.1.
	s := NewSim()
	server := NewGameServer(s)
	up := NewLink(s, 1e9, 10*time.Millisecond, 0, server)
	down := NewLink(s, 1e9, 10*time.Millisecond, 0, nil)
	client := NewGameClient(s, 1, ReceiverFunc(func(p Packet) { up.Send(p) }))
	down.Out = client
	server.Register(1, ReceiverFunc(func(p Packet) { down.Send(p) }))
	s.Schedule(5*time.Second, func() { up.Delay = 60 * time.Millisecond })
	// Just after the change the display is still near 20ms.
	s.Run(5*time.Second + 500*time.Millisecond)
	mid := client.DisplayedMs()
	if mid > 60 {
		t.Fatalf("display jumped immediately: %.1f", mid)
	}
	// Well after the change it converges to ≈ 70ms RTT.
	s.Run(12 * time.Second)
	late := client.DisplayedMs()
	if late < 65 || late > 75 {
		t.Fatalf("display did not converge: %.1f", late)
	}
	if mid >= late {
		t.Fatal("display should rise gradually")
	}
}

func TestTestbedQuietBaseline(t *testing.T) {
	// Without background traffic phases, Test and Control should display
	// nearly identical latencies and the bottleneck should be idle.
	cfg := DefaultTestbedConfig("Genshin Impact", 7*time.Millisecond, 1e8, 50, 0.02, 1)
	cfg.UDPFlows = 0
	cfg.TCPFlows = 0
	res := RunTestbed(cfg)
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	last := res.Samples[len(res.Samples)-1]
	if last.ControlMs < 13 || last.ControlMs > 17 {
		t.Fatalf("control = %.1f ms, want ≈ 15 (2×7ms + LAN)", last.ControlMs)
	}
	diff := last.TestMs - last.ControlMs
	if diff < 0 || diff > 3 {
		t.Fatalf("test-control = %.2f ms, want small", diff)
	}
	if res.MaxBottleneckMs > 1.5 {
		t.Fatalf("idle bottleneck latency = %.2f ms", res.MaxBottleneckMs)
	}
}

func TestTestbedCongestionTracksBottleneck(t *testing.T) {
	// With UDP background traffic at 100% of the bottleneck, the Test
	// play-station's displayed latency must rise by about the bottleneck
	// queue delay while Control stays flat, and the adjusted difference
	// must stay within a few ms for most samples (Fig. 4 shape).
	cfg := DefaultTestbedConfig("Genshin Impact", 7*time.Millisecond, 1e8, 500, 0.05, 2)
	res := RunTestbed(cfg)
	if res.MaxBottleneckMs < 5 {
		t.Fatalf("congestion did not build queue: max = %.2f ms", res.MaxBottleneckMs)
	}
	// §4.1 structure: outside transition edges (the averaging window after
	// each phase boundary), |adjusted − network| is small; the large
	// differences happen exactly when background traffic starts or stops.
	boundaries := []time.Duration{
		cfg.Startup,
		cfg.Startup + cfg.UDPPhase,
		cfg.Startup + cfg.UDPPhase + cfg.MixedPhase,
	}
	guard := cfg.AvgWindow + 2*time.Second
	var steady []float64
	for _, smp := range res.Samples {
		if smp.At < cfg.Startup/2 {
			continue
		}
		inTransition := false
		for _, b := range boundaries {
			if smp.At >= b-cfg.SampleEvery && smp.At <= b+guard {
				inTransition = true
				break
			}
		}
		if inTransition {
			continue
		}
		d := smp.TestMs - smp.ControlMs - smp.BottleneckMs
		if d < 0 {
			d = -d
		}
		steady = append(steady, d)
	}
	if len(steady) == 0 {
		t.Fatal("no steady samples")
	}
	if p95 := stats.Percentile(steady, 95); p95 > 8.5 {
		t.Fatalf("steady-state p95 |adjusted-network| = %.2f ms, want ≤ 8.5 (paper)", p95)
	}
	// Control stays near baseline throughout.
	for _, smp := range res.Samples {
		if smp.At > cfg.Startup/2 && (smp.ControlMs < 13 || smp.ControlMs > 18) {
			t.Fatalf("control drifted to %.1f ms at %v", smp.ControlMs, smp.At)
		}
	}
	// The lag phenomenon exists: some transition-window sample differs by
	// more than 4ms (the paper's threshold for "worse" moments).
	sawLag := false
	for _, smp := range res.Samples {
		d := smp.TestMs - smp.ControlMs - smp.BottleneckMs
		if d > 4 || d < -4 {
			sawLag = true
			break
		}
	}
	if !sawLag {
		t.Fatal("expected transition-lag samples > 4ms")
	}
}
