package download

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"tero/internal/kvstore"
)

// readCountingKV counts a KV's hash reads and records its writes in order.
type readCountingKV struct {
	kvstore.KV
	hget, hgetall int
	writes        []string
}

func (k *readCountingKV) HGet(key, field string) (string, bool) {
	k.hget++
	return k.KV.HGet(key, field)
}

func (k *readCountingKV) HGetAll(key string) map[string]string {
	k.hgetall++
	return k.KV.HGetAll(key)
}

func (k *readCountingKV) HSet(key, field, value string) bool {
	k.writes = append(k.writes, "HSET "+key+" "+field)
	return k.KV.HSet(key, field, value)
}

func (k *readCountingKV) HDel(key, field string) bool {
	k.writes = append(k.writes, "HDEL "+key+" "+field)
	return k.KV.HDel(key, field)
}

func (k *readCountingKV) RPush(key string, values ...string) int {
	for _, v := range values {
		var a Assignment
		json.Unmarshal([]byte(v), &a)
		k.writes = append(k.writes, "RPUSH "+key+" "+a.StreamerID)
	}
	return k.KV.RPush(key, values...)
}

// TestPollOnceReadsActiveOnce: a poll reads the active hash with one
// HGETALL and no HGET, after the offline notices are applied; a row that
// comes back on a later page is enqueued once; the writes are the notices'
// deletes, then one HSET and one RPUSH per newly live streamer in row
// order; and the download_active_streamers gauge counts the hash.
func TestPollOnceReadsActiveOnce(t *testing.T) {
	// Two pages; "b" is live on both, as when the live set shifts under
	// the cursor.
	var mu sync.Mutex
	pages := [][]string{{"a", "b", "kept"}, {"b", "c"}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := 0
		if r.URL.Query().Get("after") != "" {
			i = 1
		}
		var page streamsPage
		mu.Lock()
		ids := pages[i]
		mu.Unlock()
		for _, id := range ids {
			page.Data = append(page.Data, streamRow{UserID: id, UserLogin: "login-" + id, GameName: "Valorant",
				ThumbnailURL: "http://cdn/" + id + ".pgm"})
		}
		if i == 0 {
			page.Pagination.Cursor = "next"
		}
		json.NewEncoder(w).Encode(page)
	}))
	defer srv.Close()

	kv := &readCountingKV{KV: kvstore.New()}
	for _, id := range []string{"gone", "kept"} {
		kv.KV.HSet(KeyActive, id, Assignment{StreamerID: id}.encode())
	}
	kv.KV.HSet(KeyClaimed, "gone", "A")
	kv.KV.RPush(KeyOffline, "gone")
	c := NewCoordinator(kv, NewAPIClient(srv.URL))

	if err := c.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if kv.hgetall != 1 || kv.hget != 0 {
		t.Fatalf("first poll: %d HGETALL and %d HGET, want 1 and 0", kv.hgetall, kv.hget)
	}
	want := []string{
		"HDEL dl:active gone", "HDEL dl:claimed gone",
		"HSET dl:active a", "RPUSH dl:queue a",
		"HSET dl:active b", "RPUSH dl:queue b",
		"HSET dl:active c", "RPUSH dl:queue c",
	}
	if !reflect.DeepEqual(kv.writes, want) {
		t.Fatalf("first poll writes\n%v\nwant\n%v", kv.writes, want)
	}
	if got, n := mActive.Value(), len(kv.KV.HGetAll(KeyActive)); got != 4 || n != 4 {
		t.Fatalf("after the first poll: gauge %v, active hash %d, want 4 and 4", got, n)
	}

	// Nothing new: the second poll writes nothing and reads the hash once.
	kv.writes = nil
	if err := c.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if kv.hgetall != 2 || kv.hget != 0 || len(kv.writes) != 0 {
		t.Fatalf("second poll: %d HGETALL, %d HGET, writes %v; want 2, 0, none", kv.hgetall, kv.hget, kv.writes)
	}
	if got := mActive.Value(); got != 4 {
		t.Fatalf("after the second poll: gauge %v, want 4", got)
	}

	// An offline notice for "b", which has left the pages, frees it.
	kv.KV.RPush(KeyOffline, "b")
	mu.Lock()
	pages = [][]string{{"a", "kept"}, {"c"}}
	mu.Unlock()
	kv.writes = nil
	if err := c.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(kv.writes), "[HDEL dl:active b HDEL dl:claimed b]"; got != want {
		t.Fatalf("third poll writes %s, want %s", got, want)
	}
	if got := mActive.Value(); got != 3 {
		t.Fatalf("after an offline notice: gauge %v, want 3", got)
	}
}
