package server

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"testing"
)

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.Put("k", []int32{1, 2, 3})
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("disabled cache holds entries")
	}
}

func TestCachePutGetOverwrite(t *testing.T) {
	c := newResultCache(1 << 20)
	c.Put("k", []int32{1, 2, 3})
	got, ok := c.Get([]byte("k"))
	if !ok || len(got.nodes) != 3 || got.nodes[0] != 1 {
		t.Fatalf("get: %v %v", got, ok)
	}
	c.Put("k", []int32{9})
	if got, _ := c.Get([]byte("k")); len(got.nodes) != 1 || got.nodes[0] != 9 {
		t.Fatalf("overwrite: %v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d after overwrite", c.Len())
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	// Budget small enough that shards overflow: each entry costs
	// ~64 + key + 4*nodes bytes, shard budget is total/16.
	c := newResultCache(16 * 400)
	nodes := make([]int32, 50) // ~270 bytes per entry
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("key-%d", i), nodes)
	}
	if c.Len() >= 64 {
		t.Fatalf("no eviction happened: %d entries", c.Len())
	}
	if c.Bytes() > 16*400 {
		t.Fatalf("cache over budget: %d bytes", c.Bytes())
	}
	// An entry larger than a shard budget is refused outright.
	c.Put("huge", make([]int32, 1<<10))
	if _, ok := c.Get([]byte("huge")); ok {
		t.Fatal("oversized entry was cached")
	}
}

func TestCacheRecencyOrder(t *testing.T) {
	// Single shard worth of keys: force same-shard collisions by using
	// a cache with a tiny budget and probing which keys share a shard.
	c := newResultCache(16 * 256)
	var keys []string
	for i := 0; len(keys) < 3 && i < 4096; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.shard(maphash.String(c.seed, k)) == &c.shards[0] {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		t.Skip("hash seed produced too few shard-0 keys")
	}
	nodes := make([]int32, 30) // ~190 bytes: shard of 256 holds one
	c.Put(keys[0], nodes)
	c.Put(keys[1], nodes) // evicts keys[0]
	if _, ok := c.Get([]byte(keys[0])); ok {
		t.Fatal("LRU entry survived over-budget put")
	}
	if _, ok := c.Get([]byte(keys[1])); !ok {
		t.Fatal("most recent entry evicted")
	}
}

// chargedBytes recomputes what the cache should be charging from its
// entries: key + 4·nodes + len(enc) + 64 each.
func chargedBytes(c *resultCache) (total, encoded int64) {
	for i := range c.shards {
		for el := c.shards[i].ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			total += int64(len(e.key)) + 4*int64(len(e.nodes)) + int64(len(e.enc)) + 64
			encoded += int64(len(e.enc))
		}
	}
	return total, encoded
}

func TestCacheEncodingsStayInBudget(t *testing.T) {
	const budget = 16 * 4000
	c := newResultCache(budget)
	keys := make([]string, 100) // about 6 entries of <= 400 B a shard: room for some encodings, not all
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		nodes := make([]int32, 20+i%60)
		for j := range nodes {
			nodes[j] = int32(i * j * 37)
		}
		c.Put(keys[i], nodes)
	}
	check := func(when string) {
		t.Helper()
		total, encoded := chargedBytes(c)
		if c.Bytes() != total || c.EncodedBytes() != encoded || total > budget {
			t.Fatalf("%s: Bytes %d (entries say %d), EncodedBytes %d (entries say %d), budget %d",
				when, c.Bytes(), total, c.EncodedBytes(), encoded, budget)
		}
	}
	check("after puts")
	entries, attached := c.Len(), 0
	for _, k := range keys { // a hit on every entry: encodings attach while their shard has room
		e, ok := c.Get([]byte(k))
		if !ok {
			continue
		}
		enc, before := appendNodes(nil, e.nodes), c.EncodedBytes()
		if got := c.Attach([]byte(k), e.nodes, enc); &got[0] != &enc[0] {
			t.Fatalf("first Attach on %s returned another encoding", k)
		}
		if again, _ := c.Get([]byte(k)); again.enc != nil {
			if got := c.Attach([]byte(k), e.nodes, appendNodes(nil, e.nodes)); &got[0] != &enc[0] {
				t.Fatalf("second Attach on %s replaced the first encoding", k)
			}
			attached++
		} else if c.EncodedBytes() != before {
			t.Fatalf("%s kept no encoding but was charged for one", k)
		}
		check("after attach " + k)
	}
	if attached == 0 || c.Len() != entries {
		t.Fatalf("%d encodings attached; %d entries before, %d after: an encoding must not evict", attached, entries, c.Len())
	}

	// Replacing an entry drops its encoding, and one made from the old
	// nodes can no longer be attached.
	k := c.shards[0].ll.Front().Value.(*cacheEntry).key
	old, _ := c.Get([]byte(k))
	c.Put(k, []int32{1, 2, 3})
	if e, _ := c.Get([]byte(k)); e.enc != nil || len(e.nodes) != 3 {
		t.Fatalf("Put kept a stale encoding: %q for %v", e.enc, e.nodes)
	}
	c.Attach([]byte(k), old.nodes, old.enc)
	if e, _ := c.Get([]byte(k)); e.enc != nil {
		t.Fatalf("Attach accepted an encoding of replaced nodes: %q", e.enc)
	}
	check("after replace")

	// An encoding that does not fit beside its nodes is handed back for
	// this response but not kept; the entry stays.
	big := make([]int32, 800) // 3 200 B of a 4 000 B shard
	for i := range big {
		big[i] = int32(1000000 + i)
	}
	c.Put("big", big)
	before := c.EncodedBytes()
	enc := appendNodes(nil, big)
	if got := c.Attach([]byte("big"), big, enc); !bytes.Equal(got, enc) {
		t.Fatal("Attach did not hand back the offered encoding")
	}
	if e, ok := c.Get([]byte("big")); !ok || e.enc != nil || c.EncodedBytes() != before {
		t.Fatalf("oversized encoding: entry present=%v, kept=%v", ok, e.enc != nil)
	}
	check("after oversized attach")
}
