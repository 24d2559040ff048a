package kvstore

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestQuickSetGetRoundTrip(t *testing.T) {
	s := New()
	f := func(key, value string) bool {
		s.Set(key, value)
		got, ok := s.Get(key)
		return ok && got == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickListFIFO(t *testing.T) {
	// RPush then LPop preserves order for arbitrary values.
	f := func(values []string) bool {
		s := New()
		s.RPush("l", values...)
		for _, want := range values {
			got, ok := s.LPop("l")
			if !ok || got != want {
				return false
			}
		}
		_, ok := s.LPop("l")
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRESPBinaryRoundTrip(t *testing.T) {
	// Arbitrary byte strings survive the wire protocol.
	srv, err := Serve(New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	f := func(key, value []byte) bool {
		k := "k" + string(key) // non-empty key
		if err := cl.Set(k, string(value)); err != nil {
			return false
		}
		got, ok, err := cl.Get(k)
		return err == nil && ok && got == string(value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHashRoundTrip(t *testing.T) {
	s := New()
	f := func(field, value string) bool {
		s.HSet("h", field, value)
		got, ok := s.HGet("h", field)
		return ok && got == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTypeTransition checks the store against a reference model for
// arbitrary interleavings of the six mutators on one key. The model is the
// kept contract: values of different types coexist under a key while live,
// Del removes every type at once, a drained list or emptied hash leaves no
// ghost entry behind (Len counts exactly the live types, Del of it reports
// absent), and every mutator's return value matches.
func TestQuickTypeTransition(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New()
		var (
			str   bool
			hash  = map[string]bool{}
			queue []string
		)
		live := func() int {
			n := 0
			for _, is := range []bool{str, len(hash) > 0, len(queue) > 0} {
				if is {
					n++
				}
			}
			return n
		}
		for i, op := range ops {
			field := "f" + strconv.Itoa(int(op>>4)%3)
			switch op % 6 {
			case 0:
				s.Set("k", "str")
				str = true
			case 1:
				if created := s.HSet("k", field, "hv"); created == hash[field] {
					return false
				}
				hash[field] = true
			case 2:
				if existed := s.HDel("k", field); existed != hash[field] {
					return false
				}
				delete(hash, field)
			case 3:
				el := strconv.Itoa(i)
				queue = append(queue, el)
				if n := s.RPush("k", el); n != len(queue) {
					return false
				}
			case 4:
				v, ok := s.LPop("k")
				if ok != (len(queue) > 0) || (ok && v != queue[0]) {
					return false
				}
				if ok {
					queue = queue[1:]
				}
			case 5:
				if got := s.Del("k"); got != (live() > 0) {
					return false
				}
				str, hash, queue = false, map[string]bool{}, nil
			}
			if s.Len() != live() {
				return false // a ghost entry, or a live type lost
			}
		}
		_, isStr := s.Get("k")
		return isStr == str && len(s.HGetAll("k")) == len(hash) && s.LLen("k") == len(queue)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
