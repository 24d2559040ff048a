package netsim

import (
	"testing"
	"time"
)

func TestGameServerIgnoresUnknownFlow(t *testing.T) {
	s := NewSim()
	server := NewGameServer(s)
	server.Receive(Packet{Flow: 99, Seq: 1})
	if server.Updates != 0 {
		t.Fatal("unregistered flow produced an update")
	}
}

func TestGameClientIgnoresStaleEcho(t *testing.T) {
	s := NewSim()
	c := NewGameClient(s, 1, ReceiverFunc(func(Packet) {}))
	c.Receive(Packet{Flow: 1, Seq: 12345}) // never sent
	if c.RTTSamples != 0 {
		t.Fatal("stale echo counted")
	}
	if c.DisplayedMs() != 0 {
		t.Fatal("display without samples")
	}
}

func TestLinkZeroBandwidth(t *testing.T) {
	s := NewSim()
	got := 0
	l := NewLink(s, 0, time.Millisecond, 10, ReceiverFunc(func(Packet) { got++ }))
	l.Send(Packet{Size: 100})
	s.Run(time.Second)
	if got != 1 {
		t.Fatal("zero-bandwidth link should deliver instantly (serialization 0)")
	}
	if l.QueueDelay() != 0 {
		t.Fatal("queue delay on idle link")
	}
}

func TestLinkUnlimitedQueue(t *testing.T) {
	s := NewSim()
	delivered := 0
	l := NewLink(s, 1e6, 0, 0, ReceiverFunc(func(Packet) { delivered++ }))
	for i := 0; i < 500; i++ {
		if !l.Send(Packet{Size: 125}) {
			t.Fatal("unlimited queue dropped")
		}
	}
	s.Run(10 * time.Second)
	if delivered != 500 || l.Dropped != 0 {
		t.Fatalf("delivered %d dropped %d", delivered, l.Dropped)
	}
}

func TestChainDelaysAccumulate(t *testing.T) {
	s := NewSim()
	var arrived time.Duration
	l1 := NewLink(s, 1e9, 5*time.Millisecond, 0, nil)
	l2 := NewLink(s, 1e9, 7*time.Millisecond, 0, nil)
	entry := Chain(l1, l2)
	Terminate(l2, ReceiverFunc(func(Packet) { arrived = s.Now() }))
	entry.Receive(Packet{Size: 10})
	s.Run(time.Second)
	if arrived < 12*time.Millisecond || arrived > 13*time.Millisecond {
		t.Fatalf("chained arrival at %v, want ≈ 12ms", arrived)
	}
	if Chain() != nil {
		t.Fatal("empty chain should be nil")
	}
}

func TestTCPZeroWindowNeverSends(t *testing.T) {
	// A sender whose stop time equals start never transmits.
	s := NewSim()
	sent := 0
	snd := NewTCPSender(s, 1, ReceiverFunc(func(Packet) { sent++ }), 1500, 0, 0)
	s.Run(time.Second)
	if sent != 0 || snd.Sent != 0 {
		t.Fatal("sender with stop=start transmitted")
	}
}

func TestTCPReceiverIgnoresAcks(t *testing.T) {
	s := NewSim()
	acks := 0
	r := NewTCPReceiver(s, 1, ReceiverFunc(func(Packet) { acks++ }))
	r.Receive(Packet{Ack: true, AckSeq: 5})
	if acks != 0 || r.Received != 0 {
		t.Fatal("receiver processed an ACK as data")
	}
}

func TestTCPOutOfOrderBuffering(t *testing.T) {
	s := NewSim()
	var acked []int
	r := NewTCPReceiver(s, 1, ReceiverFunc(func(p Packet) { acked = append(acked, p.AckSeq) }))
	r.Receive(Packet{Seq: 1, Size: 1500}) // out of order
	r.Receive(Packet{Seq: 0, Size: 1500}) // fills the hole
	if r.Received != 2 {
		t.Fatalf("received = %d", r.Received)
	}
	// First ack is a duplicate-ack for 0, second jumps to 2.
	if len(acked) != 2 || acked[0] != 0 || acked[1] != 2 {
		t.Fatalf("acks = %v", acked)
	}
}

func TestUDPFlowStopsAtStop(t *testing.T) {
	s := NewSim()
	sink := &UDPSink{}
	NewUDPFlow(s, 1, sink, 1e6, 1250, 0, 100*time.Millisecond)
	s.Run(time.Minute)
	// 100 pkt/s for 0.1s ≈ 10-11 packets, certainly not a minute's worth.
	if sink.Packets == 0 || sink.Packets > 15 {
		t.Fatalf("packets = %d", sink.Packets)
	}
}

func TestSimulatorHeapOrderingUnderLoad(t *testing.T) {
	s := NewSim()
	var last time.Duration
	monotone := true
	for i := 0; i < 1000; i++ {
		d := time.Duration((i*7919)%1000) * time.Millisecond
		s.Schedule(d, func() {
			if s.Now() < last {
				monotone = false
			}
			last = s.Now()
		})
	}
	s.Run(2 * time.Second)
	if !monotone {
		t.Fatal("event times not monotone")
	}
	if len(s.events) != 0 {
		t.Fatalf("pending = %d", len(s.events))
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := NewSim()
	ran := false
	s.Schedule(-time.Second, func() { ran = true })
	s.Run(0)
	if !ran {
		t.Fatal("negative-delay event should run immediately")
	}
}
