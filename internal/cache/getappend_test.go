package cache

import (
	"bytes"
	"testing"
)

// TestGetAppend: GetAppendVer hits append into the caller's buffer and
// count exactly like Get; misses leave the buffer untouched and count a get
// without a hit. Consecutive appends into one buffer must concatenate — the pooled
// mget reply path builds its whole body this way.
func TestGetAppend(t *testing.T) {
	c := NewSharded(1<<20, 4, func() Policy { return NewLRU() })
	if err := c.Put(EntryID{Key: "k", Index: 0}, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(EntryID{Key: "k", Index: 1}, []byte("bb")); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 0, 16)
	buf, _, ok := c.GetAppendVer(EntryID{Key: "k", Index: 0}, buf)
	if !ok || !bytes.Equal(buf, []byte("aaaa")) {
		t.Fatalf("first append: ok=%v buf=%q", ok, buf)
	}
	base := &buf[0]
	buf, _, ok = c.GetAppendVer(EntryID{Key: "k", Index: 9}, buf)
	if ok || !bytes.Equal(buf, []byte("aaaa")) {
		t.Fatalf("miss mutated buffer: ok=%v buf=%q", ok, buf)
	}
	buf, _, ok = c.GetAppendVer(EntryID{Key: "k", Index: 1}, buf)
	if !ok || !bytes.Equal(buf, []byte("aaaabb")) {
		t.Fatalf("second append: ok=%v buf=%q", ok, buf)
	}
	if &buf[0] != base {
		t.Fatal("append reallocated despite sufficient capacity")
	}

	st := c.Stats()
	if st.Gets != 3 || st.Hits != 2 {
		t.Fatalf("stats gets=%d hits=%d, want 3/2", st.Gets, st.Hits)
	}

	// The appended bytes must be a copy: mutating the buffer must not
	// corrupt the cached entry.
	buf[0] = 'Z'
	got, err := c.Get(EntryID{Key: "k", Index: 0})
	if err != nil || !bytes.Equal(got, []byte("aaaa")) {
		t.Fatalf("cached entry corrupted through GetAppendVer buffer: %q, %v", got, err)
	}
}

// TestGetAppendKeepsLRUWarm: a GetAppendVer must refresh recency exactly like
// Get, or the pooled read path would silently change eviction behaviour.
func TestGetAppendKeepsLRUWarm(t *testing.T) {
	c := NewSharded(64, 1, func() Policy { return NewLRU() })
	c.Put(EntryID{Key: "a", Index: 0}, make([]byte, 24))
	c.Put(EntryID{Key: "b", Index: 0}, make([]byte, 24))
	// Touch "a" via GetAppendVer, then insert something that forces
	// eviction: "b" (cold) must go, "a" (warm) must stay.
	if _, _, ok := c.GetAppendVer(EntryID{Key: "a", Index: 0}, nil); !ok {
		t.Fatal("warm-up read missed")
	}
	c.Put(EntryID{Key: "c", Index: 0}, make([]byte, 24))
	if !c.Contains(EntryID{Key: "a", Index: 0}) {
		t.Fatal("recently appended entry was evicted")
	}
	if c.Contains(EntryID{Key: "b", Index: 0}) {
		t.Fatal("cold entry survived over the warm one")
	}
}

// TestMeanEntryBytes tracks the resident-size average the server's reply
// buffer sizing and split threshold lean on.
func TestMeanEntryBytes(t *testing.T) {
	c := NewSharded(1<<20, 4, func() Policy { return NewLRU() })
	if got := c.MeanEntryBytes(); got != 0 {
		t.Fatalf("empty cache mean = %d", got)
	}
	c.Put(EntryID{Key: "a", Index: 0}, make([]byte, 100))
	c.Put(EntryID{Key: "b", Index: 0}, make([]byte, 300))
	if got := c.MeanEntryBytes(); got != 200 {
		t.Fatalf("mean = %d, want 200", got)
	}
}
