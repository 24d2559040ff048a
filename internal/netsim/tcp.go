package netsim

import "time"

// TCPSender is a TCP-Reno-like sender: slow start, congestion avoidance,
// fast retransmit on three duplicate ACKs, and retransmission timeouts with
// Jacobson/Karels RTO estimation. Sequence numbers count segments, not
// bytes. It sends an unbounded amount of data from `start` until `stop`.
type TCPSender struct {
	sim   *Sim
	fwd   Receiver // data path (sender -> receiver)
	id    int
	size  int // segment size bytes
	start time.Duration
	stop  time.Duration

	cwnd           float64 // congestion window, segments
	ssthresh       float64
	nextSeq        int // next new segment to send
	sendBase       int // lowest unacked segment
	dupAcks        int
	inFastRecovery bool

	// RTO estimation.
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoTimerID   int
	// Karn: segment sampled for RTT (one at a time), 0 = none.
	sampleSeq int
	sampleAt  time.Duration

	// PaceRate, when positive, caps the average send rate in bits/s via a
	// token bucket — iperf3-style application-limited flows (Table 2 uses
	// 10% of the bottleneck bandwidth per TCP flow).
	PaceRate float64
	tokens   float64 // bytes
	lastFill time.Duration

	// Counters.
	Sent, Retransmits int
	AckedSegments     int
}

// tcpSegHeader approximates Ethernet+IP+TCP overhead already folded into
// the segment size; ACK packets are 40 bytes.
const tcpAckSize = 40

// NewTCPSender creates a sender whose data flows into fwd. The matching
// receiver must be created with NewTCPReceiver and its ACK path must point
// back to this sender.
func NewTCPSender(sim *Sim, id int, fwd Receiver, segSize int, start, stop time.Duration) *TCPSender {
	s := &TCPSender{
		sim: sim, fwd: fwd, id: id, size: segSize,
		start: start, stop: stop,
		cwnd: 1, ssthresh: 64,
		rto: 200 * time.Millisecond,
	}
	sim.Schedule(start-sim.Now(), s.trySend)
	return s
}

// inflight returns the number of unacked segments.
func (s *TCPSender) inflight() int { return s.nextSeq - s.sendBase }

// NewTCPSenderPaced creates a sender rate-capped at `rate` bits/s.
func NewTCPSenderPaced(sim *Sim, id int, fwd Receiver, segSize int, start, stop time.Duration, rate float64) *TCPSender {
	s := NewTCPSender(sim, id, fwd, segSize, start, stop)
	s.PaceRate = rate
	s.lastFill = start
	return s
}

// refillTokens advances the token bucket.
func (s *TCPSender) refillTokens() {
	if s.PaceRate <= 0 {
		return
	}
	now := s.sim.Now()
	if now > s.lastFill {
		s.tokens += s.PaceRate / 8 * float64(now-s.lastFill) / float64(time.Second)
		burst := 10 * float64(s.size)
		if s.tokens > burst {
			s.tokens = burst
		}
		s.lastFill = now
	}
}

// trySend transmits new segments while the window (and pacing budget)
// allows.
func (s *TCPSender) trySend() {
	if s.sim.Now() >= s.stop {
		return
	}
	s.refillTokens()
	for float64(s.inflight()) < s.cwnd {
		if s.PaceRate > 0 {
			if s.tokens < float64(s.size) {
				// Wake up when the bucket has refilled for one segment.
				need := float64(s.size) - s.tokens
				wait := time.Duration(need * 8 / s.PaceRate * float64(time.Second))
				if wait < time.Microsecond {
					wait = time.Microsecond
				}
				s.sim.Schedule(wait, s.trySend)
				return
			}
			s.tokens -= float64(s.size)
		}
		s.sendSegment(s.nextSeq, false)
		s.nextSeq++
	}
}

func (s *TCPSender) sendSegment(seq int, isRetransmit bool) {
	s.Sent++
	if isRetransmit {
		s.Retransmits++
		// Karn's rule: do not sample retransmitted segments.
		if s.sampleSeq == seq {
			s.sampleSeq = 0
		}
	} else if s.sampleSeq == 0 {
		s.sampleSeq = seq
		s.sampleAt = s.sim.Now()
	}
	s.fwd.Receive(Packet{Size: s.size, Flow: s.id, Seq: seq, SentAt: s.sim.Now()})
	s.armTimer()
}

// armTimer (re)arms the retransmission timer.
func (s *TCPSender) armTimer() {
	s.rtoTimerID++
	id := s.rtoTimerID
	s.sim.Schedule(s.rto, func() { s.onTimeout(id) })
}

func (s *TCPSender) onTimeout(id int) {
	if id != s.rtoTimerID || s.inflight() == 0 || s.sim.Now() >= s.stop {
		return
	}
	// RTO: multiplicative backoff, collapse window, retransmit base.
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.dupAcks = 0
	s.inFastRecovery = false
	s.rto *= 2
	if s.rto > 10*time.Second {
		s.rto = 10 * time.Second
	}
	s.sendSegment(s.sendBase, true)
}

// OnAck processes a cumulative ACK (AckSeq = next expected segment).
func (s *TCPSender) OnAck(p Packet) {
	ack := p.AckSeq
	switch {
	case ack > s.sendBase:
		newly := ack - s.sendBase
		s.sendBase = ack
		s.AckedSegments += newly
		s.dupAcks = 0
		// RTT sample.
		if s.sampleSeq != 0 && ack > s.sampleSeq {
			s.updateRTO(s.sim.Now() - s.sampleAt)
			s.sampleSeq = 0
		}
		if s.inFastRecovery {
			// NewReno-lite: full ACK ends recovery.
			s.cwnd = s.ssthresh
			s.inFastRecovery = false
		} else if s.cwnd < s.ssthresh {
			s.cwnd += float64(newly) // slow start
		} else {
			s.cwnd += float64(newly) / s.cwnd // congestion avoidance
		}
		if s.inflight() > 0 {
			s.armTimer()
		} else {
			s.rtoTimerID++ // disarm
		}
		s.trySend()
	case ack == s.sendBase:
		s.dupAcks++
		if s.inFastRecovery {
			s.cwnd++ // inflate
			s.trySend()
			return
		}
		if s.dupAcks == 3 {
			// Fast retransmit + fast recovery.
			s.ssthresh = s.cwnd / 2
			if s.ssthresh < 2 {
				s.ssthresh = 2
			}
			s.cwnd = s.ssthresh + 3
			s.inFastRecovery = true
			s.sendSegment(s.sendBase, true)
		}
	}
}

// Receive implements Receiver (the ACK path terminates here).
func (s *TCPSender) Receive(p Packet) {
	if p.Ack {
		s.OnAck(p)
	}
}

func (s *TCPSender) updateRTO(sample time.Duration) {
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		delta := s.srtt - sample
		if delta < 0 {
			delta = -delta
		}
		s.rttvar = (3*s.rttvar + delta) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < 10*time.Millisecond {
		s.rto = 10 * time.Millisecond
	}
}

// TCPReceiver delivers cumulative ACKs back to the sender through the
// reverse path.
type TCPReceiver struct {
	sim *Sim
	rev Receiver // ACK path (receiver -> sender)
	id  int

	expected int // next in-order segment
	buffer   map[int]bool

	// Received counts in-order segments delivered.
	Received int
}

// NewTCPReceiver creates the receiving side; rev carries its ACKs.
func NewTCPReceiver(sim *Sim, id int, rev Receiver) *TCPReceiver {
	return &TCPReceiver{sim: sim, rev: rev, id: id, buffer: make(map[int]bool)}
}

// Receive implements Receiver (the data path terminates here).
func (r *TCPReceiver) Receive(p Packet) {
	if p.Ack {
		return
	}
	if p.Seq == r.expected {
		r.expected++
		r.Received++
		for r.buffer[r.expected] {
			delete(r.buffer, r.expected)
			r.expected++
			r.Received++
		}
	} else if p.Seq > r.expected {
		r.buffer[p.Seq] = true
	}
	r.rev.Receive(Packet{Size: tcpAckSize, Flow: r.id, Ack: true, AckSeq: r.expected, SentAt: r.sim.Now()})
}
