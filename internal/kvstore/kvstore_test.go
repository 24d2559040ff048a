package kvstore

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestStoreStrings(t *testing.T) {
	s := New()
	s.Set("a", "1")
	if v, ok := s.Get("a"); !ok || v != "1" {
		t.Fatal("set/get")
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key")
	}
	if !s.Del("a") || s.Del("a") {
		t.Fatal("del semantics")
	}
}

func TestStoreHashes(t *testing.T) {
	s := New()
	s.HSet("h", "f1", "v1")
	s.HSet("h", "f2", "v2")
	if v, ok := s.HGet("h", "f1"); !ok || v != "v1" {
		t.Fatal("hget")
	}
	all := s.HGetAll("h")
	if len(all) != 2 || all["f2"] != "v2" {
		t.Fatalf("hgetall = %v", all)
	}
	s.HDel("h", "f1")
	if _, ok := s.HGet("h", "f1"); ok {
		t.Fatal("hdel")
	}
}

func TestStoreLists(t *testing.T) {
	s := New()
	if n := s.RPush("l", "a", "b"); n != 2 {
		t.Fatalf("rpush = %d", n)
	}
	s.RPush("l", "c")
	if n := s.LLen("l"); n != 3 {
		t.Fatalf("llen = %d", n)
	}
	for _, want := range []string{"a", "b", "c"} {
		if v, ok := s.LPop("l"); !ok || v != want {
			t.Fatalf("lpop = %q %v, want %q", v, ok, want)
		}
	}
	if _, ok := s.LPop("l"); ok {
		t.Fatal("pop empty")
	}
	if s.LLen("nope") != 0 {
		t.Fatal("length of missing list")
	}
}

// TestStoreConcurrency runs writers against the four readers, which hold
// only the read lock; run with -race.
func TestStoreConcurrency(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Set("str", fmt.Sprintf("%d-%d", g, i))
				s.RPush("list", fmt.Sprintf("%d-%d", g, i))
				s.HSet("hash", fmt.Sprintf("f%d", g), "v")
				s.Get("str")
				s.HGet("hash", "f0")
				s.HGetAll("hash")
				s.LLen("list")
			}
		}(g)
	}
	wg.Wait()
	if n := len(s.HGetAll("hash")); n != 8 {
		t.Fatalf("hash fields = %d", n)
	}
	if s.LLen("list") != 1600 {
		t.Fatalf("list len = %d", s.LLen("list"))
	}
}

func newServerClient(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := Serve(New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestServerBasicCommands(t *testing.T) {
	_, cl := newServerClient(t)
	if rep, err := cl.Do("PING"); err != nil || rep.Str != "PONG" {
		t.Fatalf("ping = %+v, %v", rep, err)
	}
	if _, err := cl.Do("SET", "k", "hello world"); err != nil {
		t.Fatal(err)
	}
	if rep, err := cl.Do("GET", "k"); err != nil || rep.Null || rep.Str != "hello world" {
		t.Fatalf("get = %+v %v", rep, err)
	}
	if rep, _ := cl.Do("GET", "missing"); !rep.Null {
		t.Fatal("missing should be null")
	}
	if rep, err := cl.Do("DEL", "k"); err != nil || rep.Int != 1 {
		t.Fatalf("del = %+v", rep)
	}
}

func TestServerBinarySafety(t *testing.T) {
	_, cl := newServerClient(t)
	// Values with CRLF and protocol bytes survive round-trip.
	nasty := "line1\r\nline2 $5 *3 +OK"
	if _, err := cl.Do("SET", "n", nasty); err != nil {
		t.Fatal(err)
	}
	if rep, err := cl.Do("GET", "n"); err != nil || rep.Null || rep.Str != nasty {
		t.Fatalf("binary round trip = %q", rep.Str)
	}
}

func TestServerListsAndHashes(t *testing.T) {
	_, cl := newServerClient(t)
	if rep, err := cl.Do("RPUSH", "l", "a", "b", "c"); err != nil || rep.Int != 3 {
		t.Fatalf("rpush = %+v %v", rep, err)
	}
	if rep, err := cl.Do("LLEN", "l"); err != nil || rep.Int != 3 {
		t.Fatalf("llen = %+v %v", rep, err)
	}
	if rep, err := cl.Do("LPOP", "l"); err != nil || rep.Str != "a" {
		t.Fatalf("lpop = %+v", rep)
	}
	if _, err := cl.Do("HSET", "h", "f", "v"); err != nil {
		t.Fatal(err)
	}
	if rep, err := cl.Do("HGET", "h", "f"); err != nil || rep.Str != "v" {
		t.Fatalf("hget = %+v", rep)
	}
	all, err := cl.Do("HGETALL", "h")
	if err != nil || len(all.Array) != 2 {
		t.Fatalf("hgetall = %+v", all)
	}
}

func TestServerErrors(t *testing.T) {
	_, cl := newServerClient(t)
	if _, err := cl.Do("NOSUCH"); err == nil {
		t.Fatal("unknown command should error")
	}
	if _, err := cl.Do("GET"); err == nil {
		t.Fatal("arity error expected")
	}
	// The connection survives errors.
	if rep, err := cl.Do("PING"); err != nil || rep.Str != "PONG" {
		t.Fatal("connection should survive command errors")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv, _ := newServerClient(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 100; i++ {
				if _, err := cl.Do("RPUSH", "shared", "x"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cl, _ := Dial(srv.Addr())
	defer cl.Close()
	if rep, err := cl.Do("LLEN", "shared"); err != nil || rep.Int != 800 {
		t.Fatalf("shared = %+v, %v, want 800", rep, err)
	}
}

// TestRemoteStoreErrConcurrent: two commands that fail at once on one
// RemoteStore (a worker's round and its heartbeat, say) both record the
// transport error; run with -race, which caught the unsynchronised write.
func TestRemoteStoreErrConcurrent(t *testing.T) {
	srv, _ := newServerClient(t)
	rs, err := DialStore(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := rs.Get("k"); ok {
				t.Error("a Get against a closed server found its key")
			}
		}()
	}
	wg.Wait()
	if rs.Err() == nil {
		t.Fatal("two failed commands recorded no error")
	}
}

// TestLPopClaimContention is the distributed claim race in miniature: many
// real client connections hammer LPOP on one queue — as a teroworker fleet
// does at the top of every round — and every item must be claimed exactly
// once. Runs under -race via the normal test build.
func TestLPopClaimContention(t *testing.T) {
	srv, cl := newServerClient(t)

	const items = 1000
	const clients = 8
	vals := make([]string, items)
	for i := range vals {
		vals[i] = "item-" + strconv.Itoa(i)
	}
	if rep, err := cl.Do(append([]string{"RPUSH", "q"}, vals...)...); err != nil || rep.Int != items {
		t.Fatalf("seed RPUSH: %v %v", rep, err)
	}

	claims := make([][]string, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			conn, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer conn.Close()
			for {
				rep, err := conn.Do("LPOP", "q")
				if err != nil {
					t.Errorf("client %d LPOP: %v", c, err)
					return
				}
				if rep.Null {
					return // drained
				}
				claims[c] = append(claims[c], rep.Str)
			}
		}(c)
	}
	wg.Wait()

	seen := make(map[string]int, items)
	total := 0
	for c := range claims {
		total += len(claims[c])
		for _, v := range claims[c] {
			seen[v]++
		}
	}
	if total != items {
		t.Fatalf("claimed %d items, want %d", total, items)
	}
	for i := range vals {
		if n := seen[vals[i]]; n != 1 {
			t.Fatalf("%s claimed %d times", vals[i], n)
		}
	}
	if rep, err := cl.Do("LLEN", "q"); err != nil || rep.Int != 0 {
		t.Fatalf("queue not drained: %v %v", rep, err)
	}
	// The race only counts as exercised if the pops actually interleaved.
	busiest, idlest := 0, items
	for c := range claims {
		if len(claims[c]) > busiest {
			busiest = len(claims[c])
		}
		if len(claims[c]) < idlest {
			idlest = len(claims[c])
		}
	}
	t.Logf("claim spread across %d clients: min %d, max %d", clients, idlest, busiest)
	if busiest == items {
		fmt.Println("warning: one client claimed everything; contention not exercised")
	}
}

// TestReadersShareTheLock: with TTLs gone the four readers purge nothing, so
// they must hold only the read lock — they complete while another reader
// (here the test itself) holds it.
func TestReadersShareTheLock(t *testing.T) {
	s := New()
	s.Set("s", "v")
	s.HSet("h", "f", "v")
	s.RPush("l", "a")
	s.mu.RLock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Get("s")
		s.HGet("h", "f")
		s.HGetAll("h")
		s.LLen("l")
	}()
	select {
	case <-done:
		s.mu.RUnlock()
	case <-time.After(5 * time.Second):
		t.Fatal("a reader blocked behind a held read lock: it takes the write lock")
	}
}
