package netsim

import "time"

// GameClient is a play-station: it sends an input update to the game server
// every TickEvery, and displays a latency number computed exactly as the
// paper reverse-engineers it (§4.1): an average of application-layer RTT
// samples over a window of a few seconds, which makes the displayed value
// lag a few seconds behind sharp network-latency changes.
type GameClient struct {
	sim       *Sim
	toServer  Receiver
	id        int
	TickEvery time.Duration
	AvgWindow time.Duration
	PktSize   int

	seq     int
	pending map[int]time.Duration // seq -> send time
	samples []rttSample

	// RTTSamples counts completed round trips.
	RTTSamples int
}

type rttSample struct {
	at  time.Duration
	rtt time.Duration
}

// NewGameClient creates a client ticking immediately.
func NewGameClient(sim *Sim, id int, toServer Receiver) *GameClient {
	c := &GameClient{
		sim: sim, toServer: toServer, id: id,
		TickEvery: 50 * time.Millisecond,
		AvgWindow: 3 * time.Second,
		PktSize:   120,
		pending:   make(map[int]time.Duration),
	}
	sim.Schedule(0, c.tick)
	return c
}

func (c *GameClient) tick() {
	c.seq++
	c.pending[c.seq] = c.sim.Now()
	c.toServer.Receive(Packet{Size: c.PktSize, Flow: c.id, Seq: c.seq, SentAt: c.sim.Now()})
	c.sim.Schedule(c.TickEvery, c.tick)
}

// Receive implements Receiver: the server's state updates echo our seq.
func (c *GameClient) Receive(p Packet) {
	sent, ok := c.pending[p.Seq]
	if !ok {
		return
	}
	delete(c.pending, p.Seq)
	c.RTTSamples++
	c.samples = append(c.samples, rttSample{at: c.sim.Now(), rtt: c.sim.Now() - sent})
	// Trim outside the averaging window.
	cut := c.sim.Now() - c.AvgWindow
	i := 0
	for i < len(c.samples) && c.samples[i].at < cut {
		i++
	}
	c.samples = c.samples[i:]
}

// DisplayedMs returns the latency number the game shows on screen: the
// window-averaged RTT in milliseconds.
func (c *GameClient) DisplayedMs() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range c.samples {
		sum += s.rtt
	}
	avg := sum / time.Duration(len(c.samples))
	return float64(avg) / float64(time.Millisecond)
}

// GameServer echoes each client input as a state update on the reverse
// path; per the paper, game servers respond with periodic updates and the
// latency is measured at the application layer.
type GameServer struct {
	sim     *Sim
	clients map[int]Receiver // flow id -> reverse path to that client
	PktSize int

	// Updates counts state updates sent.
	Updates int
}

// NewGameServer creates a server.
func NewGameServer(sim *Sim) *GameServer {
	return &GameServer{sim: sim, clients: make(map[int]Receiver), PktSize: 180}
}

// Register wires the reverse path for one client.
func (s *GameServer) Register(id int, rev Receiver) { s.clients[id] = rev }

// Receive implements Receiver.
func (s *GameServer) Receive(p Packet) {
	rev, ok := s.clients[p.Flow]
	if !ok {
		return
	}
	s.Updates++
	rev.Receive(Packet{Size: s.PktSize, Flow: p.Flow, Seq: p.Seq, SentAt: s.sim.Now()})
}
