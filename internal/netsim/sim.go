// Package netsim is a discrete-event network simulator reproducing the
// paper's physical testbed (§4.1, Fig. 3): two play-stations connected to a
// game server, one of them behind a controllable bottleneck loaded with
// iperf-style UDP and TCP background traffic. It provides links with
// drop-tail queues, constant-bit-rate UDP flows, TCP-Reno senders, and a
// game client/server pair whose displayed latency is a windowed average of
// application-layer RTT samples — the mechanism the paper hypothesizes
// behind the few-second lag between network and gaming latency.
package netsim

import (
	"container/heap"
	"time"
)

// Sim is a discrete-event simulator with virtual time.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    int64
}

// NewSim returns a simulator at virtual time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Schedule runs fn after delay d (>= 0).
func (s *Sim) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.seq++
	heap.Push(&s.events, &event{at: s.now + d, seq: s.seq, fn: fn})
}

// Run processes events until virtual time `until` (inclusive) or until no
// events remain.
func (s *Sim) Run(until time.Duration) {
	for len(s.events) > 0 {
		ev := s.events[0]
		if ev.at > until {
			break
		}
		heap.Pop(&s.events)
		s.now = ev.at
		ev.fn()
	}
	if s.now < until {
		s.now = until
	}
}

type event struct {
	at  time.Duration
	seq int64 // FIFO tie-break for simultaneous events
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
