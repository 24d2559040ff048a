package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"tero/internal/objstore"
)

// Server exposes a Store over TCP with RESP framing.
type Server struct {
	store *Store
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	quit   chan struct{}
	wg     sync.WaitGroup

	// replMu guards the replica link when this server follows a primary
	// (REPLICAOF / the terokv -replicaof flag).
	replMu sync.Mutex
	repl   *Replica

	// objects, when attached, is where OPUT stores (objserver.go).
	objects *objstore.Store
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") and returns it; the
// actual address is available via Addr.
func Serve(store *Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{store: store, ln: ln, conns: make(map[net.Conn]struct{}),
		quit: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ReplicaOf points the server's store at a primary: it stops any existing
// replica link, then (unless addr is empty — promotion) starts tailing the
// primary at addr. Matches the wire REPLICAOF command.
func (s *Server) ReplicaOf(addr string) error {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.repl != nil {
		s.repl.Stop()
		s.repl = nil
	}
	if addr == "" {
		return nil
	}
	r, err := StartReplica(addr, s.store)
	if err != nil {
		return err
	}
	s.repl = r
	return nil
}

// Close stops the server, any replica link, and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ReplicaOf("") //nolint:errcheck // stop-only path cannot fail
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
		if len(args) == 1 && strings.ToUpper(args[0]) == "SYNC" {
			// The connection flips into push mode: snapshot, then the live
			// command stream, until either side goes away.
			s.serveSync(w)
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

// serveSync streams a full resync to a replica: a handshake line carrying
// the snapshot length and the replication offset at the cut, the snapshot
// commands, then every subsequent write in commit order. The feed is
// registered atomically with the snapshot (Store.SyncFeed), so the replica
// misses nothing and sees nothing twice.
func (s *Server) serveSync(w *bufio.Writer) {
	snap, off, feed := s.store.SyncFeed(4096)
	defer feed.Close()
	if err := writeSimple(w, fmt.Sprintf("FULLRESYNC %d %d", len(snap), off)); err != nil {
		return
	}
	for _, c := range snap {
		if err := writeCmd(w, c); err != nil {
			return
		}
	}
	if err := w.Flush(); err != nil {
		return
	}
	mReplFullSync.Inc()
	for {
		select {
		case cmd, ok := <-feed.C():
			if !ok {
				return
			}
			if err := writeCmd(w, cmd); err != nil {
				return
			}
			mReplStreamed.Inc()
			// Drain whatever else is queued before flushing once.
			for drained := false; !drained; {
				select {
				case more, ok := <-feed.C():
					if !ok {
						w.Flush() //nolint:errcheck
						return
					}
					if err := writeCmd(w, more); err != nil {
						return
					}
					mReplStreamed.Inc()
				default:
					drained = true
				}
			}
			mReplPending.Set(float64(len(feed.C())))
			if err := w.Flush(); err != nil {
				return
			}
		case <-s.quit:
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
		// differ run to run, which AOF replay comparisons and replica
		// byte-diffing cannot tolerate.
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
	case "OPUT":
		return s.putObject(w, args)
	case "REPLICAOF":
		// REPLICAOF host:port follows a primary; REPLICAOF NO ONE promotes.
		if len(args) == 3 && strings.EqualFold(args[1], "NO") && strings.EqualFold(args[2], "ONE") {
			s.ReplicaOf("") //nolint:errcheck // stop-only path cannot fail
			return writeSimple(w, "OK")
		}
		if !wantArgs(2) {
			return writeError(w, "REPLICAOF needs host:port or NO ONE")
		}
		if err := s.ReplicaOf(args[1]); err != nil {
			return writeError(w, err.Error())
		}
		return writeSimple(w, "OK")
	case "REPLINFO":
		s.replMu.Lock()
		repl := s.repl
		s.replMu.Unlock()
		if repl != nil {
			return writeBulk(w, fmt.Sprintf("role=replica source=%s applied=%d offset=%d feeds=%d",
				repl.Source(), repl.Applied(), s.store.ReplOffset(), s.store.FeedCount()))
		}
		return writeBulk(w, fmt.Sprintf("role=primary offset=%d feeds=%d",
			s.store.ReplOffset(), s.store.FeedCount()))
	default:
		return writeError(w, "unknown command "+cmd)
	}
}

// Client is a RESP client for the server. It is safe for concurrent use;
// commands are serialized over one connection. With MaxRedials > 0 it
// transparently reconnects and resends after a transport failure — the
// reconnect-and-resume a restarted (crash-recovered or failed-over) store
// needs from its callers. Resending is safe at the coordination layer
// because the chaos discipline crashes stores at quiescent points and the
// download path's writes are idempotent per streamer/seq.
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

// Get is a convenience wrapper for GET.
func (c *Client) Get(key string) (string, bool, error) {
	rep, err := c.Do("GET", key)
	if err != nil {
		return "", false, err
	}
	if rep.Null {
		return "", false, nil
	}
	return rep.Str, true, nil
}

// Set is a convenience wrapper for SET.
func (c *Client) Set(key, value string) error {
	_, err := c.Do("SET", key, value)
	return err
}
