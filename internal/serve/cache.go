package serve

import (
	"container/list"
	"sync"
)

// DefaultCacheSize is the response cache capacity (bodies, not bytes).
const DefaultCacheSize = 512

// cached is one LRU value: a marshaled response body and its ETag.
type cached struct {
	key  string
	body []byte
	etag string
}

// lruCache is a small mutex-guarded LRU of marshaled response bodies for
// hot keys. Cache keys embed the index version, so a snapshot Swap
// implicitly invalidates every stale body — stale entries age out of the
// LRU instead of being served.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

func newLRU(capacity int) *lruCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached body and ETag for key, promoting it to
// most-recently-used.
func (c *lruCache) get(key string) ([]byte, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, "", false
	}
	c.ll.MoveToFront(el)
	v := el.Value.(*cached)
	return v.body, v.etag, true
}

// add stores a body under key, evicting the least-recently-used entry when
// over capacity.
func (c *lruCache) add(key string, body []byte, etag string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*cached)
		v.body, v.etag = body, etag
		return
	}
	c.items[key] = c.ll.PushFront(&cached{key: key, body: body, etag: etag})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		if last == nil {
			break
		}
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cached).key)
		mCacheEvictions.Inc()
	}
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
