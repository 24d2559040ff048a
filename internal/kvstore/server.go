package kvstore

import (
	"bufio"
	"errors"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// Server exposes a Store over TCP with RESP framing.
type Server struct {
	store *Store
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") and returns it; the
// actual address is available via Addr.
func Serve(store *Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{store: store, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		if err := s.dispatch(w, args); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch executes one command and writes the reply.
func (s *Server) dispatch(w *bufio.Writer, args []string) error {
	if len(args) == 0 {
		return writeError(w, "empty command")
	}
	cmd := strings.ToUpper(args[0])
	wantArgs := func(n int) bool { return len(args) == n }
	switch cmd {
	case "PING":
		return writeSimple(w, "PONG")
	case "SET":
		if !wantArgs(3) {
			return writeError(w, "SET needs key value")
		}
		s.store.Set(args[1], args[2])
		return writeSimple(w, "OK")
	case "GET":
		if !wantArgs(2) {
			return writeError(w, "GET needs key")
		}
		if v, ok := s.store.Get(args[1]); ok {
			return writeBulk(w, v)
		}
		return writeNull(w)
	case "DEL":
		if !wantArgs(2) {
			return writeError(w, "DEL needs key")
		}
		if s.store.Del(args[1]) {
			return writeInt(w, 1)
		}
		return writeInt(w, 0)
	case "HSET":
		if !wantArgs(4) {
			return writeError(w, "HSET needs key field value")
		}
		if s.store.HSet(args[1], args[2], args[3]) {
			return writeInt(w, 1) // field created
		}
		return writeInt(w, 0) // existing field overwritten
	case "HGET":
		if !wantArgs(3) {
			return writeError(w, "HGET needs key field")
		}
		if v, ok := s.store.HGet(args[1], args[2]); ok {
			return writeBulk(w, v)
		}
		return writeNull(w)
	case "HDEL":
		if !wantArgs(3) {
			return writeError(w, "HDEL needs key field")
		}
		if s.store.HDel(args[1], args[2]) {
			return writeInt(w, 1)
		}
		return writeInt(w, 0)
	case "HGETALL":
		if !wantArgs(2) {
			return writeError(w, "HGETALL needs key")
		}
		// Sorted field order: Go map iteration would make the wire bytes
		// differ run to run, which byte-for-byte reply comparisons cannot
		// tolerate.
		h := s.store.HGetAll(args[1])
		fields := make([]string, 0, len(h))
		for f := range h {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		if err := writeArray(w, 2*len(h)); err != nil {
			return err
		}
		for _, f := range fields {
			if err := writeBulk(w, f); err != nil {
				return err
			}
			if err := writeBulk(w, h[f]); err != nil {
				return err
			}
		}
		return nil
	case "RPUSH":
		if len(args) < 3 {
			return writeError(w, "RPUSH needs key value...")
		}
		return writeInt(w, int64(s.store.RPush(args[1], args[2:]...)))
	case "LPOP":
		if !wantArgs(2) {
			return writeError(w, "LPOP needs key")
		}
		if v, ok := s.store.LPop(args[1]); ok {
			return writeBulk(w, v)
		}
		return writeNull(w)
	case "LLEN":
		if !wantArgs(2) {
			return writeError(w, "LLEN needs key")
		}
		return writeInt(w, int64(s.store.LLen(args[1])))
	default:
		return writeError(w, "unknown command "+cmd)
	}
}

// Client is a RESP client for the server. It is safe for concurrent use;
// commands are serialized over one connection. With MaxRedials > 0 it
// transparently reconnects and resends after a transport failure — the
// reconnect-and-resume a store restarted from its log needs from its
// callers. Resending is safe at the coordination layer because the chaos
// discipline crashes stores at quiescent points and the download path's
// writes are idempotent per streamer/seq.
type Client struct {
	// MaxRedials bounds reconnect attempts per command (0 = fail fast).
	MaxRedials int
	// RedialWait is the pause between reconnect attempts (default 50ms).
	RedialWait time.Duration

	mu   sync.Mutex
	addr string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a kvstore server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, conn: conn,
		r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one command and returns the decoded reply, redialing and
// resending on transport errors up to MaxRedials times.
func (c *Client) Do(args ...string) (Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		rep, err := c.doOnce(args)
		if err == nil || rep.Kind == '-' {
			// Success, or a server-side error reply: the connection is
			// healthy, don't retry.
			return rep, err
		}
		c.conn.Close()
		if attempt >= c.MaxRedials {
			return Reply{}, err
		}
		wait := c.RedialWait
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
		time.Sleep(wait)
		conn, derr := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if derr != nil {
			continue // burn an attempt; the server may still be restarting
		}
		c.conn = conn
		c.r = bufio.NewReader(conn)
		c.w = bufio.NewWriter(conn)
		mRedials.Inc()
	}
}

// doOnce performs one send/receive round; caller holds c.mu.
func (c *Client) doOnce(args []string) (Reply, error) {
	if err := writeCmd(c.w, args); err != nil {
		return Reply{}, err
	}
	if err := c.w.Flush(); err != nil {
		return Reply{}, err
	}
	rep, err := readReply(c.r)
	if err != nil {
		return Reply{}, err
	}
	if rep.Kind == '-' {
		return rep, errors.New(rep.Str)
	}
	return rep, nil
}
