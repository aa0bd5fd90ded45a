// Package coherence holds the per-key version-floor table of the versioned
// write path (VersionTable), which live cache and store servers enforce
// versioned mutations against. Writes carry hybrid-logical-clock versions
// and invalidations ride the cooperative digest mesh, so per-key
// last-writer-wins needs no replicated log: no reader must agree on
// cross-key order, only on which version of one key is newest.
// docs/WRITES.md records the design; internal/live's write-coherence tests
// check read-after-write across regions on real sockets.
package coherence

import (
	"sync"

	"github.com/agardist/agar/internal/hlc"
)

// versionShards stripes the table to keep concurrent writers and the read
// path off one mutex. Must be a power of two.
const versionShards = 16

// VersionTable tracks the newest hybrid-logical-clock version observed per
// object key — the invalidation floor of the versioned write path. Cache
// servers consult it on every versioned mutation: a put below the floor is
// a stale write-back and is rejected; a delobj or digest at a higher
// version raises the floor, after which no chunk from before the write can
// be admitted or served again. Store servers use a second instance as the
// in-memory cache over their persisted version records.
//
// Version zero is the unversioned sentinel: keys never written through the
// versioned path have floor zero and every legacy operation passes.
type VersionTable struct {
	shards [versionShards]struct {
		mu   sync.Mutex
		vers map[string]hlc.Timestamp
	}
}

// NewVersionTable returns an empty table.
func NewVersionTable() *VersionTable {
	t := &VersionTable{}
	for i := range t.shards {
		t.shards[i].vers = make(map[string]hlc.Timestamp)
	}
	return t
}

// shardFor routes a key to its stripe (FNV-1a, like the cache's lock stripes).
func (t *VersionTable) shardFor(key string) *struct {
	mu   sync.Mutex
	vers map[string]hlc.Timestamp
} {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &t.shards[h&(versionShards-1)]
}

// Get returns the key's version floor (zero when never observed).
func (t *VersionTable) Get(key string) hlc.Timestamp {
	s := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vers[key]
}

// Observe raises the key's floor to ver if ver is newer and reports
// whether it did — true means the caller just learned about a write it had
// not seen and should drop any older cached state for the key.
func (t *VersionTable) Observe(key string, ver hlc.Timestamp) bool {
	if ver.IsZero() {
		return false
	}
	s := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ver <= s.vers[key] {
		return false
	}
	s.vers[key] = ver
	return true
}

// Admit reports whether a mutation at ver may apply under the current
// floor, and the floor it was judged against. Unversioned mutations
// (ver zero) always pass — the legacy path is never blocked. A versioned
// mutation passes when ver >= floor; equality re-admits chunks of the
// current version (a populate racing the write that set the floor).
func (t *VersionTable) Admit(key string, ver hlc.Timestamp) (bool, hlc.Timestamp) {
	s := t.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.vers[key]
	if ver.IsZero() {
		return true, cur
	}
	return ver >= cur, cur
}

// Seed sets the key's floor unconditionally — the hydration hook store
// servers use when loading a persisted version record, and tests use to
// construct states. Unlike Observe it can lower a floor; callers outside
// hydration should prefer Observe.
func (t *VersionTable) Seed(key string, ver hlc.Timestamp) {
	s := t.shardFor(key)
	s.mu.Lock()
	if ver.IsZero() {
		delete(s.vers, key)
	} else {
		s.vers[key] = ver
	}
	s.mu.Unlock()
}

// Len returns how many keys carry a nonzero floor.
func (t *VersionTable) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.vers)
		s.mu.Unlock()
	}
	return n
}
