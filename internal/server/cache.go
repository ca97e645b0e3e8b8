package server

import (
	"container/list"
	"hash/maphash"
	"sync"
)

// resultCache is a sharded LRU over evaluated node sequences. Sharding
// keeps lock contention off the hot read path when many clients hit the
// cache concurrently; each shard is an independent LRU with its own
// slice of the byte budget.
//
// Keys are built by cacheKey from (document name, load generation,
// strategy, pushdown, query text) — see docs/ARCHITECTURE.md for why
// parallelism is deliberately *not* part of the key. Values are the
// immutable result node slices plus, once an entry has been hit, the
// JSON text of that slice, so later hits copy bytes instead of
// re-encoding nodes; an entry never re-read never pays for one. Entries
// are charged 4 bytes per node, the key and the encoding's length.
type resultCache struct {
	seed   maphash.Seed
	shards []cacheShard
}

type cacheShard struct {
	mu       sync.Mutex
	ll       *list.List // front = most recent
	m        map[string]*list.Element
	bytes    int64
	encBytes int64 // the part of bytes held as encodings
	maxBytes int64
}

type cacheEntry struct {
	key   string
	nodes []int32
	enc   []byte // appendNodes(nil, nodes), attached by the first hit
	bytes int64
}

// cached is the view of an entry a hit hands out; both slices are
// read-only.
type cached struct {
	nodes []int32
	enc   []byte // nil until attached
}

const cacheShards = 16

// minEncodedNodes is the smallest result that gets an encoding. A hit on
// a smaller one encodes its nodes afresh — a few microseconds at most —
// and the budget its encoding would take (about 1.7x the nodes) holds
// entries instead.
const minEncodedNodes = 1024

// newResultCache builds a cache with the given total byte budget.
// A budget <= 0 disables caching (Get always misses, Put drops).
func newResultCache(maxBytes int64) *resultCache {
	c := &resultCache{seed: maphash.MakeSeed()}
	if maxBytes <= 0 {
		return c
	}
	per := maxBytes / cacheShards
	if per < 1 {
		per = 1
	}
	c.shards = make([]cacheShard, cacheShards)
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].m = make(map[string]*list.Element)
		c.shards[i].maxBytes = per
	}
	return c
}

// shard picks a shard by key hash (maphash.String and maphash.Bytes
// agree): nil when the cache is disabled.
func (c *resultCache) shard(hash uint64) *cacheShard {
	if len(c.shards) == 0 {
		return nil
	}
	return &c.shards[hash%uint64(len(c.shards))]
}

// Get returns the entry under key and makes it the most recent. The key
// is bytes so that a hit can look up a pooled buffer without building a
// string.
func (c *resultCache) Get(key []byte) (cached, bool) {
	s := c.shard(maphash.Bytes(c.seed, key))
	if s == nil {
		return cached{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[string(key)]
	if !ok {
		return cached{}, false
	}
	s.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return cached{nodes: e.nodes, enc: e.enc}, true
}

// Attach offers enc as the encoding of the entry that holds nodes under
// key and returns the encoding to serve: the entry's own if an earlier
// hit attached one, else enc — retained, and charged like the nodes, only
// if the shard has the room as it stands. An encoding never evicts an
// entry: one lost that way would turn a hit into an evaluation.
func (c *resultCache) Attach(key []byte, nodes []int32, enc []byte) []byte {
	s := c.shard(maphash.Bytes(c.seed, key))
	if s == nil {
		return enc
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[string(key)]
	if !ok {
		return enc
	}
	e := el.Value.(*cacheEntry)
	switch {
	case len(e.nodes) != len(nodes) || (len(nodes) > 0 && &e.nodes[0] != &nodes[0]):
		// replaced since the Get
	case e.enc != nil:
		return e.enc
	case s.bytes+int64(len(enc)) <= s.maxBytes:
		e.enc = enc
		e.bytes += int64(len(enc))
		s.bytes += int64(len(enc))
		s.encBytes += int64(len(enc))
	}
	return enc
}

// Put stores nodes under key, evicting least-recently-used entries to
// stay within the shard budget. The slice is retained; callers must not
// modify it afterwards.
func (c *resultCache) Put(key string, nodes []int32) {
	s := c.shard(maphash.String(c.seed, key))
	if s == nil {
		return
	}
	cost := int64(len(key)) + 4*int64(len(nodes)) + 64
	s.mu.Lock()
	defer s.mu.Unlock()
	if cost > s.maxBytes {
		return // would evict the whole shard for one entry
	}
	if el, ok := s.m[key]; ok {
		s.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		s.bytes += cost - e.bytes
		s.encBytes -= int64(len(e.enc))
		e.nodes, e.enc, e.bytes = nodes, nil, cost
	} else {
		s.m[key] = s.ll.PushFront(&cacheEntry{key: key, nodes: nodes, bytes: cost})
		s.bytes += cost
	}
	for s.bytes > s.maxBytes { // ends before the entry just moved to the front
		e := s.ll.Remove(s.ll.Back()).(*cacheEntry)
		delete(s.m, e.key)
		s.bytes -= e.bytes
		s.encBytes -= int64(len(e.enc))
	}
}

// sum adds f over the shards, each under its lock.
func (c *resultCache) sum(f func(*cacheShard) int64) (n int64) {
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += f(&c.shards[i])
		c.shards[i].mu.Unlock()
	}
	return n
}

// Len returns the number of cached entries across all shards.
func (c *resultCache) Len() int {
	return int(c.sum(func(s *cacheShard) int64 { return int64(len(s.m)) }))
}

// Bytes returns the charged bytes across all shards.
func (c *resultCache) Bytes() int64 { return c.sum(func(s *cacheShard) int64 { return s.bytes }) }

// EncodedBytes returns the part of Bytes held as encodings.
func (c *resultCache) EncodedBytes() int64 {
	return c.sum(func(s *cacheShard) int64 { return s.encBytes })
}
