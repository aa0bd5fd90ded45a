package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func id(key string, idx int) EntryID { return EntryID{Key: key, Index: idx} }

func TestPutGetRoundTrip(t *testing.T) {
	c := New(1024, NewLRU())
	data := []byte("chunk-bytes")
	if err := c.Put(id("obj", 3), data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(id("obj", 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	// Returned slice must be a copy.
	got[0] = 'X'
	again, _ := c.Get(id("obj", 3))
	if again[0] == 'X' {
		t.Fatal("Get returned shared storage")
	}
	// Stored data must be a copy of the caller's slice too.
	data[1] = 'Y'
	again, _ = c.Get(id("obj", 3))
	if again[1] == 'Y' {
		t.Fatal("Put retained caller storage")
	}
}

func TestGetMissing(t *testing.T) {
	c := New(64, NewLRU())
	if _, err := c.Get(id("nope", 0)); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPutTooLarge(t *testing.T) {
	c := New(10, NewLRU())
	if err := c.Put(id("big", 0), make([]byte, 11)); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestCapacityAccounting(t *testing.T) {
	c := New(100, NewLRU())
	for i := 0; i < 5; i++ {
		if err := c.Put(id("o", i), make([]byte, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Used() != 100 || c.Len() != 5 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
	// Overwrite must not double-count.
	if err := c.Put(id("o", 0), make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 100 || c.Len() != 5 {
		t.Fatalf("after overwrite: used=%d len=%d", c.Used(), c.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(30, NewLRU())
	for i := 0; i < 3; i++ {
		mustPut(t, c, id("o", i), 10)
	}
	// Touch o#0 so o#1 becomes the LRU victim.
	if _, err := c.Get(id("o", 0)); err != nil {
		t.Fatal(err)
	}
	mustPut(t, c, id("o", 3), 10)
	if c.Contains(id("o", 1)) {
		t.Fatal("o#1 should have been evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if !c.Contains(id("o", i)) {
			t.Fatalf("o#%d missing", i)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestLRUEvictsMultipleForLargeInsert(t *testing.T) {
	c := New(30, NewLRU())
	for i := 0; i < 3; i++ {
		mustPut(t, c, id("o", i), 10)
	}
	mustPut(t, c, id("big", 0), 25) // needs 3 evictions
	if c.Len() != 1 || !c.Contains(id("big", 0)) {
		t.Fatalf("len=%d", c.Len())
	}
}

func TestLFUEvictionOrder(t *testing.T) {
	c := New(30, NewLFU())
	mustPut(t, c, id("hot", 0), 10)
	mustPut(t, c, id("warm", 0), 10)
	mustPut(t, c, id("cold", 0), 10)
	for i := 0; i < 5; i++ {
		c.Get(id("hot", 0))
	}
	c.Get(id("warm", 0))
	mustPut(t, c, id("new", 0), 10)
	if c.Contains(id("cold", 0)) {
		t.Fatal("cold should have been evicted first")
	}
	if !c.Contains(id("hot", 0)) || !c.Contains(id("warm", 0)) {
		t.Fatal("hot/warm must survive")
	}
}

func TestLFUTieBreaksLRU(t *testing.T) {
	c := New(20, NewLFU())
	mustPut(t, c, id("a", 0), 10)
	mustPut(t, c, id("b", 0), 10)
	// Both freq 1; a is older -> a evicted.
	mustPut(t, c, id("c", 0), 10)
	if c.Contains(id("a", 0)) {
		t.Fatal("LFU tie should evict the least recently used (a)")
	}
	if !c.Contains(id("b", 0)) {
		t.Fatal("b should survive")
	}
}

func TestLFUNewEntryNotImmediatelyReEvicted(t *testing.T) {
	// A new entry starts at freq 1 (the minimum): inserting two new items in
	// a row must evict older freq-1 items, not each other out of order.
	c := New(20, NewLFU())
	mustPut(t, c, id("x", 0), 10)
	c.Get(id("x", 0)) // freq 2
	mustPut(t, c, id("y", 0), 10)
	mustPut(t, c, id("z", 0), 10) // evicts y (freq 1), not x (freq 2)
	if c.Contains(id("y", 0)) || !c.Contains(id("x", 0)) || !c.Contains(id("z", 0)) {
		t.Fatal("LFU evicted the wrong entry")
	}
}

func TestPinnedRefusesEviction(t *testing.T) {
	c := New(20, NewPinned())
	mustPut(t, c, id("a", 0), 10)
	mustPut(t, c, id("b", 0), 10)
	if err := c.Put(id("c", 0), make([]byte, 10)); err != ErrCacheFull {
		t.Fatalf("err = %v, want ErrCacheFull", err)
	}
	if s := c.Stats(); s.FullRejects != 1 || s.AdmissionRejects != 0 || s.AdmissionRejects+s.FullRejects != 1 {
		t.Fatalf("rejects = %+v", s)
	}
	// Explicit delete makes room.
	c.Delete(id("a", 0))
	if err := c.Put(id("c", 0), make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteObjectAndIndicesOf(t *testing.T) {
	c := New(1000, NewLRU())
	for i := 0; i < 4; i++ {
		mustPut(t, c, id("multi", i*2), 10)
	}
	mustPut(t, c, id("other", 0), 10)
	idxs := c.IndicesOf("multi")
	want := []int{0, 2, 4, 6}
	if len(idxs) != 4 {
		t.Fatalf("IndicesOf = %v", idxs)
	}
	for i := range want {
		if idxs[i] != want[i] {
			t.Fatalf("IndicesOf = %v, want %v", idxs, want)
		}
	}
	if n := c.DeleteObject("multi"); n != 4 {
		t.Fatalf("DeleteObject removed %d", n)
	}
	if c.Len() != 1 || len(c.IndicesOf("multi")) != 0 {
		t.Fatal("object not fully removed")
	}
}

func TestGetObject(t *testing.T) {
	c := New(1000, NewLRU())
	mustPut(t, c, id("o", 1), 5)
	mustPut(t, c, id("o", 7), 5)
	mustPut(t, c, id("p", 0), 5)
	got := c.GetObject("o")
	if len(got) != 2 {
		t.Fatalf("GetObject returned %d chunks", len(got))
	}
	if _, ok := got[1]; !ok {
		t.Fatal("chunk 1 missing")
	}
	if _, ok := got[7]; !ok {
		t.Fatal("chunk 7 missing")
	}
	if got := c.GetObject("absent"); got == nil || len(got) != 0 {
		t.Fatal("GetObject on absent key must return empty non-nil map")
	}
}

func TestSnapshot(t *testing.T) {
	c := New(1000, NewLRU())
	mustPut(t, c, id("a", 0), 5)
	mustPut(t, c, id("a", 3), 5)
	mustPut(t, c, id("b", 1), 5)
	snap := c.Snapshot()
	if len(snap) != 2 || len(snap["a"]) != 2 || snap["a"][1] != 3 || len(snap["b"]) != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestClear(t *testing.T) {
	c := New(100, NewLFU())
	mustPut(t, c, id("a", 0), 10)
	mustPut(t, c, id("b", 0), 10)
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatal("Clear left residue")
	}
	// Cache must still work after Clear.
	mustPut(t, c, id("c", 0), 10)
	if !c.Contains(id("c", 0)) {
		t.Fatal("cache broken after Clear")
	}
}

func TestAdmissionFilter(t *testing.T) {
	c := New(100, NewLRU())
	c.SetAdmission(func(e EntryID) bool { return e.Key != "banned" })
	if err := c.Put(id("banned", 0), make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if c.Contains(id("banned", 0)) {
		t.Fatal("admission filter ignored")
	}
	if err := c.Put(id("ok", 0), make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(id("ok", 0)) {
		t.Fatal("allowed insert dropped")
	}
	if s := c.Stats(); s.AdmissionRejects != 1 || s.FullRejects != 0 {
		t.Fatalf("rejects = %+v", s)
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(100, NewLRU())
	mustPut(t, c, id("a", 0), 10)
	c.Get(id("a", 0))
	c.Get(id("missing", 0))
	s := c.Stats()
	if s.Sets != 1 || s.Gets != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: under arbitrary operation sequences, used bytes never exceed
// capacity and always equal the sum of resident entry sizes.
func TestCapacityInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		policies := []Policy{NewLRU(), NewLFU()}
		c := New(500, policies[r.Intn(2)])
		for op := 0; op < 500; op++ {
			key := fmt.Sprintf("k%d", r.Intn(20))
			idx := r.Intn(4)
			switch r.Intn(4) {
			case 0, 1:
				size := 1 + r.Intn(120)
				err := c.Put(id(key, idx), make([]byte, size))
				if err != nil && err != ErrTooLarge {
					return false
				}
			case 2:
				c.Get(id(key, idx))
			case 3:
				c.Delete(id(key, idx))
			}
			if c.Used() > c.Capacity() || c.Used() < 0 {
				return false
			}
			// Recompute from the snapshot and entry data.
			var sum int64
			for k, idxs := range c.Snapshot() {
				for _, i := range idxs {
					data, err := c.Get(id(k, i))
					if err != nil {
						return false
					}
					sum += int64(len(data))
				}
			}
			if sum != c.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(10000, NewLRU())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", r.Intn(10))
				switch r.Intn(3) {
				case 0:
					c.Put(id(key, r.Intn(3)), make([]byte, 1+r.Intn(50)))
				case 1:
					c.Get(id(key, r.Intn(3)))
				case 2:
					c.GetObject(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > c.Capacity() {
		t.Fatal("capacity breached under concurrency")
	}
}

func TestEntryIDString(t *testing.T) {
	if got := id("obj", 4).String(); got != "obj#4" {
		t.Fatalf("String = %q", got)
	}
}

func TestPolicyNames(t *testing.T) {
	if NewLRU().Name() != "lru" || NewLFU().Name() != "lfu" || NewPinned().Name() != "pinned" {
		t.Fatal("policy names wrong")
	}
}

func mustPut(t *testing.T, c *Cache, e EntryID, size int) {
	t.Helper()
	if err := c.Put(e, make([]byte, size)); err != nil {
		t.Fatalf("Put(%v): %v", e, err)
	}
}

func BenchmarkCachePutGet(b *testing.B) {
	c := New(1<<20, NewLRU())
	data := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := id(fmt.Sprintf("k%d", i%512), i%8)
		c.Put(e, data)
		c.Get(e)
	}
}

func BenchmarkLFUAccess(b *testing.B) {
	c := New(1<<20, NewLFU())
	for i := 0; i < 256; i++ {
		c.Put(id(fmt.Sprintf("k%d", i), 0), make([]byte, 512))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(id(fmt.Sprintf("k%d", i%256), 0))
	}
}
