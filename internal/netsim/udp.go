package netsim

import "time"

// UDPFlow is an iperf-style constant-bit-rate UDP sender.
type UDPFlow struct {
	sim  *Sim
	out  Receiver
	id   int
	rate float64 // bits per second
	size int     // packet size bytes
	stop time.Duration
	seq  int
}

// NewUDPFlow creates a CBR flow sending packets of `size` bytes at `rate`
// bits/s into out, from `start` until `stop` (virtual times).
func NewUDPFlow(sim *Sim, id int, out Receiver, rate float64, size int, start, stop time.Duration) *UDPFlow {
	f := &UDPFlow{sim: sim, out: out, id: id, rate: rate, size: size, stop: stop}
	sim.Schedule(start-sim.Now(), f.tick)
	return f
}

func (f *UDPFlow) tick() {
	if f.sim.Now() >= f.stop {
		return
	}
	f.seq++
	f.out.Receive(Packet{Size: f.size, Flow: f.id, Seq: f.seq, SentAt: f.sim.Now()})
	interval := time.Duration(float64(f.size*8) / f.rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}
	f.sim.Schedule(interval, f.tick)
}

// UDPSink counts received packets.
type UDPSink struct {
	Packets int
}

// Receive implements Receiver.
func (s *UDPSink) Receive(p Packet) {
	s.Packets++
}
