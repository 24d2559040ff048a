package netsim

import "time"

// Packet is a simulated packet. Payload semantics are up to the endpoints.
type Packet struct {
	// Size in bytes (on-the-wire).
	Size int
	// Flow identifies the owning flow (for per-flow accounting).
	Flow int
	// Seq is a flow-level sequence number.
	Seq int
	// Ack marks acknowledgment packets.
	Ack bool
	// AckSeq is the cumulative acknowledgment number (TCP).
	AckSeq int
	// SentAt is the sender's virtual timestamp (for RTT measurement).
	SentAt time.Duration
}

// Receiver consumes delivered packets.
type Receiver interface {
	Receive(p Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(p Packet) { f(p) }

// Link is a unidirectional link with a finite drop-tail queue: a serializer
// of Bandwidth bits/s followed by a propagation delay. QueueCap bounds the
// number of packets waiting behind the one in service (0 = unlimited).
type Link struct {
	sim       *Sim
	Bandwidth float64 // bits per second
	Delay     time.Duration
	QueueCap  int
	Out       Receiver

	queue       []Packet
	queuedBytes int
	busy        bool

	// Counters.
	Sent, Dropped int
	BytesSent     int64
}

// NewLink creates a link delivering to out.
func NewLink(sim *Sim, bandwidth float64, delay time.Duration, queueCap int, out Receiver) *Link {
	return &Link{sim: sim, Bandwidth: bandwidth, Delay: delay, QueueCap: queueCap, Out: out}
}

// serialization returns the transmit time of a packet.
func (l *Link) serialization(size int) time.Duration {
	if l.Bandwidth <= 0 {
		return 0
	}
	sec := float64(size*8) / l.Bandwidth
	return time.Duration(sec * float64(time.Second))
}

// Send enqueues a packet; it returns false when the queue is full and the
// packet was dropped.
func (l *Link) Send(p Packet) bool {
	if !l.busy {
		l.busy = true
		l.transmit(p)
		return true
	}
	if l.QueueCap > 0 && len(l.queue) >= l.QueueCap {
		l.Dropped++
		return false
	}
	l.queue = append(l.queue, p)
	l.queuedBytes += p.Size
	return true
}

// transmit serializes p and delivers it after the propagation delay.
func (l *Link) transmit(p Packet) {
	tx := l.serialization(p.Size)
	l.sim.Schedule(tx, func() {
		l.Sent++
		l.BytesSent += int64(p.Size)
		l.sim.Schedule(l.Delay, func() {
			if l.Out != nil {
				l.Out.Receive(p)
			}
		})
		if len(l.queue) > 0 {
			next := l.queue[0]
			l.queue = l.queue[1:]
			l.queuedBytes -= next.Size
			l.transmit(next)
		} else {
			l.busy = false
		}
	})
}

// QueueDelay returns the current queueing delay (time a newly arriving
// packet would wait behind the queued bytes) — the quantity the testbed
// experiment reports as the bottleneck's network latency contribution.
func (l *Link) QueueDelay() time.Duration {
	return l.serialization(l.queuedBytes)
}

// OneWayDelay returns queueing delay + propagation.
func (l *Link) OneWayDelay() time.Duration {
	return l.QueueDelay() + l.Delay
}

// Chain connects receivers in sequence: the returned receiver forwards each
// packet through the given links in order (each link's Out is rewired).
func Chain(links ...*Link) Receiver {
	if len(links) == 0 {
		return nil
	}
	for i := 0; i < len(links)-1; i++ {
		next := links[i+1]
		links[i].Out = ReceiverFunc(func(p Packet) { next.Send(p) })
	}
	first := links[0]
	return ReceiverFunc(func(p Packet) { first.Send(p) })
}

// Terminate sets the last link's destination.
func Terminate(last *Link, out Receiver) { last.Out = out }
